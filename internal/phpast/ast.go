// Package phpast defines the abstract syntax tree for the PHP 5 subset
// analyzed by this repository's taint analyzers.
//
// phpSAFE (DSN 2015, §III.B) constructs a cleaned token tree per file and
// drives its analysis off it; the baseline tools (RIPS, Pixy) are likewise
// AST-driven. All three analyzers in this repository share these node
// types, produced by package phpparse.
package phpast

// Node is the interface implemented by every AST node.
type Node interface {
	// Pos returns the 1-based source line the node starts on.
	Pos() int
}

// Expr is the interface implemented by expression nodes.
type Expr interface {
	Node
	exprNode()
}

// Stmt is the interface implemented by statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Position is embedded in every node to carry the source line.
type Position struct {
	// Line is the 1-based source line.
	Line int
}

// Pos returns the node's 1-based source line.
func (p Position) Pos() int { return p.Line }

// NewPosition constructs the embedded Position value; it exists for the
// parser package.
func NewPosition(line int) Position { return Position{Line: line} }

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// BadExpr is a placeholder for source text the parser could not interpret.
type BadExpr struct {
	Position
	// Reason describes the parse problem.
	Reason string
}

// Var is a variable use: $name. Name excludes the dollar sign.
type Var struct {
	Position
	Name string
}

// VarVar is a variable variable: $$expr.
type VarVar struct {
	Position
	Expr Expr
}

// PropertyFetch is $obj->name or $obj->$nameExpr.
type PropertyFetch struct {
	Position
	Object Expr
	// Name is the property name when static; empty if NameExpr is set.
	Name string
	// NameExpr is set for dynamic property names ($obj->$p).
	NameExpr Expr
}

// StaticPropertyFetch is ClassName::$name.
type StaticPropertyFetch struct {
	Position
	Class string
	Name  string
}

// ClassConstFetch is ClassName::NAME.
type ClassConstFetch struct {
	Position
	Class string
	Name  string
}

// ConstFetch is a bare constant such as true, null or WP_DEBUG.
type ConstFetch struct {
	Position
	Name string
}

// IndexFetch is base[index]; Index is nil for the append form base[].
type IndexFetch struct {
	Position
	Base  Expr
	Index Expr
}

// FuncCall is name(args) or $fn(args) when NameExpr is set.
type FuncCall struct {
	Position
	// Name is the lower-cased function name for direct calls.
	Name string
	// NameExpr is set for dynamic calls through a variable.
	NameExpr Expr
	Args     []Arg
}

// MethodCall is object->name(args).
type MethodCall struct {
	Position
	Object Expr
	// Name is the method name; empty if NameExpr is set.
	Name     string
	NameExpr Expr
	Args     []Arg
}

// StaticCall is ClassName::name(args).
type StaticCall struct {
	Position
	Class string
	Name  string
	Args  []Arg
}

// New is new ClassName(args).
type New struct {
	Position
	// Class is the class name; empty if ClassExpr is set (new $c).
	Class     string
	ClassExpr Expr
	Args      []Arg
}

// Arg is a call argument.
type Arg struct {
	// Value is the argument expression.
	Value Expr
	// ByRef marks call-time pass-by-reference (&$x).
	ByRef bool
}

// Assign is lhs op rhs where op is one of =, .=, +=, -=, *=, /=, %=, etc.
// ByRef marks reference assignment ($a =& $b).
type Assign struct {
	Position
	LHS   Expr
	RHS   Expr
	Op    string
	ByRef bool
}

// Binary is a binary operation, including "." concatenation and comparison
// and logical operators.
type Binary struct {
	Position
	Op string
	L  Expr
	R  Expr
}

// Unary is a prefix operation: !, -, +, ~, and error suppression @.
type Unary struct {
	Position
	Op string
	X  Expr
}

// IncDec is ++$x, --$x, $x++ or $x--.
type IncDec struct {
	Position
	Op     string // "++" or "--"
	X      Expr
	Prefix bool
}

// Ternary is cond ? then : else; Then is nil for the short form cond ?: else.
type Ternary struct {
	Position
	Cond Expr
	Then Expr
	Else Expr
}

// Cast applies a type cast to X. Type is the canonical lower-case name:
// int, float, string, array, object, bool, unset.
type Cast struct {
	Position
	Type string
	X    Expr
}

// LiteralKind distinguishes literal flavours.
type LiteralKind int

// Literal kinds.
const (
	LitInt LiteralKind = iota + 1
	LitFloat
	LitString
)

// Literal is a scalar literal. For strings, Value holds the decoded
// content without quotes.
type Literal struct {
	Position
	Kind LiteralKind
	// Value is the literal's source value; for LitString the decoded text.
	Value string
}

// InterpString is a double-quoted string, heredoc, or backtick command
// with interpolated parts. Parts alternate Literal fragments and
// expression nodes. IsShell marks backtick command execution.
type InterpString struct {
	Position
	Parts   []Expr
	IsShell bool
}

// ArrayItem is one element of an array literal.
type ArrayItem struct {
	// Key is nil for positional entries.
	Key   Expr
	Value Expr
	ByRef bool
}

// ArrayLit is array(...) or [...].
type ArrayLit struct {
	Position
	Items []ArrayItem
}

// ListExpr is the list($a, $b) = ... destructuring target.
type ListExpr struct {
	Position
	// Targets holds the destinations; nil entries are skipped positions.
	Targets []Expr
}

// IssetExpr is isset($a, $b, ...).
type IssetExpr struct {
	Position
	Vars []Expr
}

// EmptyExpr is empty($x).
type EmptyExpr struct {
	Position
	X Expr
}

// IncludeKind distinguishes the include-family constructs.
type IncludeKind int

// Include kinds.
const (
	IncInclude IncludeKind = iota + 1
	IncIncludeOnce
	IncRequire
	IncRequireOnce
)

// IncludeExpr is include/require (once) of Path.
type IncludeExpr struct {
	Position
	Kind IncludeKind
	Path Expr
}

// ExitExpr is exit(...) or die(...).
type ExitExpr struct {
	Position
	// X is the optional status expression.
	X Expr
}

// PrintExpr is print expr (print is an expression in PHP).
type PrintExpr struct {
	Position
	X Expr
}

// CloneExpr is clone $x.
type CloneExpr struct {
	Position
	X Expr
}

// InstanceOf is $x instanceof ClassName.
type InstanceOf struct {
	Position
	X     Expr
	Class string
}

// Closure is an anonymous function, optionally binding variables with use.
type Closure struct {
	Position
	Params []Param
	// Uses lists variables captured with "use"; ByRef per variable.
	Uses []ClosureUse
	Body []Stmt
}

// ClosureUse is one variable in a closure's use clause.
type ClosureUse struct {
	Name  string
	ByRef bool
}

func (*BadExpr) exprNode()             {}
func (*Var) exprNode()                 {}
func (*VarVar) exprNode()              {}
func (*PropertyFetch) exprNode()       {}
func (*StaticPropertyFetch) exprNode() {}
func (*ClassConstFetch) exprNode()     {}
func (*ConstFetch) exprNode()          {}
func (*IndexFetch) exprNode()          {}
func (*FuncCall) exprNode()            {}
func (*MethodCall) exprNode()          {}
func (*StaticCall) exprNode()          {}
func (*New) exprNode()                 {}
func (*Assign) exprNode()              {}
func (*Binary) exprNode()              {}
func (*Unary) exprNode()               {}
func (*IncDec) exprNode()              {}
func (*Ternary) exprNode()             {}
func (*Cast) exprNode()                {}
func (*Literal) exprNode()             {}
func (*InterpString) exprNode()        {}
func (*ArrayLit) exprNode()            {}
func (*ListExpr) exprNode()            {}
func (*IssetExpr) exprNode()           {}
func (*EmptyExpr) exprNode()           {}
func (*IncludeExpr) exprNode()         {}
func (*ExitExpr) exprNode()            {}
func (*PrintExpr) exprNode()           {}
func (*CloneExpr) exprNode()           {}
func (*InstanceOf) exprNode()          {}
func (*Closure) exprNode()             {}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// BadStmt is a placeholder for a statement the parser could not interpret.
type BadStmt struct {
	Position
	Reason string
}

// ExprStmt is an expression used as a statement.
type ExprStmt struct {
	Position
	X Expr
}

// Echo is echo arg1, arg2, ...; inline HTML and <?= are normalized to Echo.
type Echo struct {
	Position
	Args []Expr
	// FromHTML marks echoes synthesized from inline HTML or <?= tags.
	FromHTML bool
}

// Block is { stmts }.
type Block struct {
	Position
	List []Stmt
}

// If is an if/elseif/else chain. Elseifs and Else may be empty/nil.
type If struct {
	Position
	Cond    Expr
	Then    []Stmt
	Elseifs []ElseIf
	Else    []Stmt
}

// ElseIf is one elseif arm.
type ElseIf struct {
	Line int
	Cond Expr
	Body []Stmt
}

// While is while (cond) body.
type While struct {
	Position
	Cond Expr
	Body []Stmt
}

// DoWhile is do body while (cond).
type DoWhile struct {
	Position
	Body []Stmt
	Cond Expr
}

// For is for (init; cond; post) body.
type For struct {
	Position
	Init []Expr
	Cond []Expr
	Post []Expr
	Body []Stmt
}

// Foreach is foreach (expr as $k => $v) body.
type Foreach struct {
	Position
	Expr Expr
	// Key is nil without the => form.
	Key Expr
	// Value is the per-element target.
	Value Expr
	// ByRef marks foreach (... as &$v).
	ByRef bool
	Body  []Stmt
}

// Switch is switch (cond) { cases }.
type Switch struct {
	Position
	Cond  Expr
	Cases []SwitchCase
}

// SwitchCase is one case or default arm.
type SwitchCase struct {
	Line int
	// Cond is nil for default.
	Cond Expr
	Body []Stmt
}

// Return is return expr;
type Return struct {
	Position
	// X is nil for a bare return.
	X Expr
}

// Break is break [level];
type Break struct {
	Position
}

// Continue is continue [level];
type Continue struct {
	Position
}

// Global is global $a, $b; inside a function.
type Global struct {
	Position
	Names []string
}

// StaticVars is static $a = 1, $b; inside a function.
type StaticVars struct {
	Position
	Vars []StaticVar
}

// StaticVar is one declaration in a static statement.
type StaticVar struct {
	Name    string
	Default Expr
}

// Unset is unset($a, $b);
type Unset struct {
	Position
	Vars []Expr
}

// InlineHTML is a raw HTML segment between PHP regions.
type InlineHTML struct {
	Position
	Text string
}

// Throw is throw expr;
type Throw struct {
	Position
	X Expr
}

// Try is try { } catch (...) { } finally { }.
type Try struct {
	Position
	Body    []Stmt
	Catches []Catch
	Finally []Stmt
}

// Catch is one catch clause.
type Catch struct {
	Line  int
	Class string
	Var   string
	Body  []Stmt
}

// Param is a function or method parameter.
type Param struct {
	// Name excludes the dollar sign.
	Name string
	// ByRef marks &$param.
	ByRef bool
	// Default is the default value expression, or nil.
	Default Expr
	// TypeHint is the optional class/array type hint.
	TypeHint string
}

// FuncDecl is a top-level function declaration.
type FuncDecl struct {
	Position
	// Name is the lower-cased declared name (PHP function names are
	// case-insensitive). OrigName preserves the source spelling.
	Name     string
	OrigName string
	Params   []Param
	Body     []Stmt
	// ByRefReturn marks function &f().
	ByRefReturn bool
}

// Visibility is a member visibility level.
type Visibility int

// Visibility levels.
const (
	Public Visibility = iota + 1
	Protected
	Private
)

// PropertyDecl is one property in a class body.
type PropertyDecl struct {
	Line int
	Name string
	// Default is the initializer, or nil.
	Default    Expr
	Visibility Visibility
	Static     bool
}

// ConstDecl is one class constant.
type ConstDecl struct {
	Line  int
	Name  string
	Value Expr
}

// MethodDecl is one method in a class body.
type MethodDecl struct {
	Line int
	// Name is lower-cased; OrigName preserves spelling.
	Name       string
	OrigName   string
	Params     []Param
	Body       []Stmt
	Visibility Visibility
	Static     bool
	Abstract   bool
	Final      bool
}

// ClassDecl is a class or interface declaration.
type ClassDecl struct {
	Position
	// Name is lower-cased; OrigName preserves spelling.
	Name     string
	OrigName string
	// Extends is the lower-cased parent class name, or empty.
	Extends     string
	Implements  []string
	IsInterface bool
	Abstract    bool
	Props       []PropertyDecl
	Consts      []ConstDecl
	Methods     []MethodDecl
}

func (*BadStmt) stmtNode()    {}
func (*ExprStmt) stmtNode()   {}
func (*Echo) stmtNode()       {}
func (*Block) stmtNode()      {}
func (*If) stmtNode()         {}
func (*While) stmtNode()      {}
func (*DoWhile) stmtNode()    {}
func (*For) stmtNode()        {}
func (*Foreach) stmtNode()    {}
func (*Switch) stmtNode()     {}
func (*Return) stmtNode()     {}
func (*Break) stmtNode()      {}
func (*Continue) stmtNode()   {}
func (*Global) stmtNode()     {}
func (*StaticVars) stmtNode() {}
func (*Unset) stmtNode()      {}
func (*InlineHTML) stmtNode() {}
func (*Throw) stmtNode()      {}
func (*Try) stmtNode()        {}
func (*FuncDecl) stmtNode()   {}
func (*ClassDecl) stmtNode()  {}

// File is a parsed PHP source file.
type File struct {
	// Name is the file's path as given to the parser.
	Name string
	// Stmts is the top-level statement list ("main function" in the
	// paper's terminology, §III.C).
	Stmts []Stmt
	// Lines is the number of physical source lines.
	Lines int
	// Errors lists recoverable parse problems encountered.
	Errors []string
	// Steps counts the governor steps this file's lex and parse took
	// (zero when ungoverned), so a cached copy is charged like a parse.
	Steps int64

	// facts is what the parser recorded while building the tree (see
	// Facts); nil for a File built any other way.
	facts *Facts
}
