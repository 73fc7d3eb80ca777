package phpparse

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/phpast"
)

// mustParse parses src and fails the test on recorded errors.
func mustParse(t *testing.T, src string) *phpast.File {
	t.Helper()
	f := Parse("test.php", src, Options{})
	if len(f.Errors) > 0 {
		t.Fatalf("parse errors: %v", f.Errors)
	}
	return f
}

// firstStmt returns the first statement of the parsed file.
func firstStmt(t *testing.T, src string) phpast.Stmt {
	t.Helper()
	f := mustParse(t, src)
	if len(f.Stmts) == 0 {
		t.Fatalf("no statements parsed from %q", src)
	}
	return f.Stmts[0]
}

func TestParseAssignment(t *testing.T) {
	t.Parallel()
	s := firstStmt(t, `<?php $x = $_GET['id'];`)
	es, ok := s.(*phpast.ExprStmt)
	if !ok {
		t.Fatalf("stmt = %T, want *ExprStmt", s)
	}
	as, ok := es.X.(*phpast.Assign)
	if !ok {
		t.Fatalf("expr = %T, want *Assign", es.X)
	}
	lhs, ok := as.LHS.(*phpast.Var)
	if !ok || lhs.Name != "x" {
		t.Fatalf("LHS = %#v, want Var x", as.LHS)
	}
	idx, ok := as.RHS.(*phpast.IndexFetch)
	if !ok {
		t.Fatalf("RHS = %T, want *IndexFetch", as.RHS)
	}
	base, ok := idx.Base.(*phpast.Var)
	if !ok || base.Name != "_GET" {
		t.Fatalf("base = %#v, want Var _GET", idx.Base)
	}
	key, ok := idx.Index.(*phpast.Literal)
	if !ok || key.Value != "id" {
		t.Fatalf("index = %#v, want literal id", idx.Index)
	}
}

func TestParseEchoMultipleArgs(t *testing.T) {
	t.Parallel()
	s := firstStmt(t, `<?php echo $a, 'x', $b;`)
	e, ok := s.(*phpast.Echo)
	if !ok {
		t.Fatalf("stmt = %T, want *Echo", s)
	}
	if len(e.Args) != 3 {
		t.Fatalf("len(Args) = %d, want 3", len(e.Args))
	}
}

func TestParseMethodCallChain(t *testing.T) {
	t.Parallel()
	s := firstStmt(t, `<?php $wpdb->get_results($q);`)
	mc, ok := s.(*phpast.ExprStmt).X.(*phpast.MethodCall)
	if !ok {
		t.Fatalf("expr type = %T, want *MethodCall", s.(*phpast.ExprStmt).X)
	}
	if mc.Name != "get_results" {
		t.Fatalf("Name = %q, want get_results", mc.Name)
	}
	obj, ok := mc.Object.(*phpast.Var)
	if !ok || obj.Name != "wpdb" {
		t.Fatalf("Object = %#v, want Var wpdb", mc.Object)
	}
	if len(mc.Args) != 1 {
		t.Fatalf("len(Args) = %d, want 1", len(mc.Args))
	}
}

func TestParsePropertyFetchChain(t *testing.T) {
	t.Parallel()
	s := firstStmt(t, `<?php echo $row->user->name;`)
	outer, ok := s.(*phpast.Echo).Args[0].(*phpast.PropertyFetch)
	if !ok {
		t.Fatalf("arg = %T, want *PropertyFetch", s.(*phpast.Echo).Args[0])
	}
	if outer.Name != "name" {
		t.Fatalf("outer.Name = %q, want name", outer.Name)
	}
	inner, ok := outer.Object.(*phpast.PropertyFetch)
	if !ok || inner.Name != "user" {
		t.Fatalf("inner = %#v, want PropertyFetch user", outer.Object)
	}
}

func TestParseStaticConstructs(t *testing.T) {
	t.Parallel()
	f := mustParse(t, `<?php Foo::bar(1); Foo::$prop; Foo::BAZ;`)
	if len(f.Stmts) != 3 {
		t.Fatalf("len(Stmts) = %d, want 3", len(f.Stmts))
	}
	if _, ok := f.Stmts[0].(*phpast.ExprStmt).X.(*phpast.StaticCall); !ok {
		t.Errorf("stmt 0 = %T, want StaticCall", f.Stmts[0].(*phpast.ExprStmt).X)
	}
	if _, ok := f.Stmts[1].(*phpast.ExprStmt).X.(*phpast.StaticPropertyFetch); !ok {
		t.Errorf("stmt 1 = %T, want StaticPropertyFetch", f.Stmts[1].(*phpast.ExprStmt).X)
	}
	if _, ok := f.Stmts[2].(*phpast.ExprStmt).X.(*phpast.ClassConstFetch); !ok {
		t.Errorf("stmt 2 = %T, want ClassConstFetch", f.Stmts[2].(*phpast.ExprStmt).X)
	}
}

func TestParseFunctionDecl(t *testing.T) {
	t.Parallel()
	src := `<?php
function render_widget(&$out, $id = 7, array $opts = array()) {
	return $id;
}`
	fd, ok := firstStmt(t, src).(*phpast.FuncDecl)
	if !ok {
		t.Fatalf("stmt = %T, want *FuncDecl", firstStmt(t, src))
	}
	if fd.Name != "render_widget" {
		t.Fatalf("Name = %q", fd.Name)
	}
	if len(fd.Params) != 3 {
		t.Fatalf("len(Params) = %d, want 3", len(fd.Params))
	}
	if !fd.Params[0].ByRef {
		t.Error("param 0 should be by-ref")
	}
	if fd.Params[1].Default == nil {
		t.Error("param 1 should have a default")
	}
	if fd.Params[2].TypeHint != "array" {
		t.Errorf("param 2 hint = %q, want array", fd.Params[2].TypeHint)
	}
	if len(fd.Body) != 1 {
		t.Fatalf("len(Body) = %d, want 1", len(fd.Body))
	}
}

func TestParseClassDecl(t *testing.T) {
	t.Parallel()
	src := `<?php
class Subscriber_List extends WP_Widget implements Renderable {
	const VERSION = '2.1';
	public $name = 'default';
	private static $instances = 0;
	public function __construct($n) { $this->name = $n; }
	protected function render() { echo $this->name; }
	public static function boot() { return new self(); }
}`
	cd, ok := firstStmt(t, src).(*phpast.ClassDecl)
	if !ok {
		t.Fatalf("stmt = %T, want *ClassDecl", firstStmt(t, src))
	}
	if cd.Name != "subscriber_list" || cd.OrigName != "Subscriber_List" {
		t.Fatalf("Name = %q / %q", cd.Name, cd.OrigName)
	}
	if cd.Extends != "wp_widget" {
		t.Fatalf("Extends = %q, want wp_widget", cd.Extends)
	}
	if len(cd.Implements) != 1 || cd.Implements[0] != "renderable" {
		t.Fatalf("Implements = %v", cd.Implements)
	}
	if len(cd.Consts) != 1 || cd.Consts[0].Name != "VERSION" {
		t.Fatalf("Consts = %v", cd.Consts)
	}
	if len(cd.Props) != 2 {
		t.Fatalf("len(Props) = %d, want 2", len(cd.Props))
	}
	if cd.Props[1].Visibility != phpast.Private || !cd.Props[1].Static {
		t.Errorf("prop 1 = %+v, want private static", cd.Props[1])
	}
	if len(cd.Methods) != 3 {
		t.Fatalf("len(Methods) = %d, want 3", len(cd.Methods))
	}
	if cd.Methods[1].Visibility != phpast.Protected {
		t.Errorf("method 1 visibility = %v, want protected", cd.Methods[1].Visibility)
	}
	if !cd.Methods[2].Static {
		t.Error("method 2 should be static")
	}
}

func TestParseControlFlow(t *testing.T) {
	t.Parallel()
	src := `<?php
if ($a > 1) { echo 1; } elseif ($a < 0) { echo 2; } else { echo 3; }
while ($x) { $x--; }
do { $y++; } while ($y < 10);
for ($i = 0; $i < 5; $i++) { echo $i; }
foreach ($rows as $k => $v) { echo $v; }
switch ($mode) { case 'a': echo 'A'; break; default: echo 'D'; }`
	f := mustParse(t, src)
	wantTypes := []string{"*phpast.If", "*phpast.While", "*phpast.DoWhile",
		"*phpast.For", "*phpast.Foreach", "*phpast.Switch"}
	if len(f.Stmts) != len(wantTypes) {
		t.Fatalf("len(Stmts) = %d, want %d", len(f.Stmts), len(wantTypes))
	}
	for i, s := range f.Stmts {
		if got := typeName(s); got != wantTypes[i] {
			t.Errorf("stmt %d = %s, want %s", i, got, wantTypes[i])
		}
	}
	ifStmt := f.Stmts[0].(*phpast.If)
	if len(ifStmt.Elseifs) != 1 || len(ifStmt.Else) != 1 {
		t.Errorf("if: elseifs=%d else=%d, want 1/1", len(ifStmt.Elseifs), len(ifStmt.Else))
	}
	fe := f.Stmts[4].(*phpast.Foreach)
	if fe.Key == nil || fe.Value == nil {
		t.Error("foreach should have key and value")
	}
	sw := f.Stmts[5].(*phpast.Switch)
	if len(sw.Cases) != 2 {
		t.Errorf("switch cases = %d, want 2", len(sw.Cases))
	}
	if sw.Cases[1].Cond != nil {
		t.Error("default case should have nil Cond")
	}
}

func typeName(v any) string { return strings.TrimSpace(typeString(v)) }

func typeString(v any) string { return fmt.Sprintf("%T", v) }

func TestParseAlternativeSyntax(t *testing.T) {
	t.Parallel()
	src := `<?php if ($a): ?><p>yes</p><?php else: ?><p>no</p><?php endif; ?>`
	f := mustParse(t, src)
	if len(f.Stmts) != 1 {
		t.Fatalf("len(Stmts) = %d, want 1: %#v", len(f.Stmts), f.Stmts)
	}
	ifStmt, ok := f.Stmts[0].(*phpast.If)
	if !ok {
		t.Fatalf("stmt = %T, want *If", f.Stmts[0])
	}
	if len(ifStmt.Then) == 0 || len(ifStmt.Else) == 0 {
		t.Fatalf("then=%d else=%d, want nonzero", len(ifStmt.Then), len(ifStmt.Else))
	}
	h, ok := ifStmt.Then[0].(*phpast.Echo)
	if !ok || !h.FromHTML {
		t.Errorf("then[0] = %#v, want HTML echo", ifStmt.Then[0])
	}
}

func TestParseAlternativeForeach(t *testing.T) {
	t.Parallel()
	src := `<?php foreach ($list as $item): echo $item; endforeach;`
	fe, ok := firstStmt(t, src).(*phpast.Foreach)
	if !ok {
		t.Fatalf("stmt = %T, want *Foreach", firstStmt(t, src))
	}
	if len(fe.Body) != 1 {
		t.Fatalf("len(Body) = %d, want 1", len(fe.Body))
	}
}

func TestParseInterpolatedString(t *testing.T) {
	t.Parallel()
	s := firstStmt(t, `<?php $q = "SELECT * FROM {$wpdb->prefix}posts WHERE id=$id";`)
	as := s.(*phpast.ExprStmt).X.(*phpast.Assign)
	is, ok := as.RHS.(*phpast.InterpString)
	if !ok {
		t.Fatalf("RHS = %T, want *InterpString", as.RHS)
	}
	// Parts: "SELECT * FROM ", $wpdb->prefix, "posts WHERE id=", $id.
	if len(is.Parts) != 4 {
		t.Fatalf("len(Parts) = %d, want 4: %#v", len(is.Parts), is.Parts)
	}
	pf, ok := is.Parts[1].(*phpast.PropertyFetch)
	if !ok || pf.Name != "prefix" {
		t.Fatalf("part 1 = %#v, want PropertyFetch prefix", is.Parts[1])
	}
	v, ok := is.Parts[3].(*phpast.Var)
	if !ok || v.Name != "id" {
		t.Fatalf("part 3 = %#v, want Var id", is.Parts[3])
	}
}

func TestParseInterpolatedSimpleIndex(t *testing.T) {
	t.Parallel()
	s := firstStmt(t, `<?php echo "v=$_GET[id]";`)
	is := s.(*phpast.Echo).Args[0].(*phpast.InterpString)
	if len(is.Parts) != 2 {
		t.Fatalf("len(Parts) = %d, want 2", len(is.Parts))
	}
	idx, ok := is.Parts[1].(*phpast.IndexFetch)
	if !ok {
		t.Fatalf("part 1 = %T, want *IndexFetch", is.Parts[1])
	}
	base := idx.Base.(*phpast.Var)
	if base.Name != "_GET" {
		t.Fatalf("base = %q, want _GET", base.Name)
	}
	key := idx.Index.(*phpast.Literal)
	if key.Value != "id" || key.Kind != phpast.LitString {
		t.Fatalf("key = %#v, want string literal id", idx.Index)
	}
}

func TestParseHeredoc(t *testing.T) {
	t.Parallel()
	src := "<?php $s = <<<EOT\nHello $name\nEOT;\n"
	as := firstStmt(t, src).(*phpast.ExprStmt).X.(*phpast.Assign)
	is, ok := as.RHS.(*phpast.InterpString)
	if !ok {
		t.Fatalf("RHS = %T, want *InterpString", as.RHS)
	}
	if len(is.Parts) < 2 {
		t.Fatalf("len(Parts) = %d, want >= 2", len(is.Parts))
	}
}

func TestParseArrayLiterals(t *testing.T) {
	t.Parallel()
	s := firstStmt(t, `<?php $a = array('k' => 1, 2, 'x' => $v);`)
	al, ok := s.(*phpast.ExprStmt).X.(*phpast.Assign).RHS.(*phpast.ArrayLit)
	if !ok {
		t.Fatal("RHS should be *ArrayLit")
	}
	if len(al.Items) != 3 {
		t.Fatalf("len(Items) = %d, want 3", len(al.Items))
	}
	if al.Items[0].Key == nil || al.Items[1].Key != nil {
		t.Error("item 0 keyed, item 1 positional expected")
	}

	s2 := firstStmt(t, `<?php $b = ['a', 'b'];`)
	al2, ok := s2.(*phpast.ExprStmt).X.(*phpast.Assign).RHS.(*phpast.ArrayLit)
	if !ok {
		t.Fatal("short array RHS should be *ArrayLit")
	}
	if len(al2.Items) != 2 {
		t.Fatalf("len(Items) = %d, want 2", len(al2.Items))
	}
}

func TestParseTernaryAndShortTernary(t *testing.T) {
	t.Parallel()
	s := firstStmt(t, `<?php $x = $a ? $b : $c;`)
	tern, ok := s.(*phpast.ExprStmt).X.(*phpast.Assign).RHS.(*phpast.Ternary)
	if !ok {
		t.Fatal("RHS should be *Ternary")
	}
	if tern.Then == nil {
		t.Error("full ternary should have Then")
	}
	s2 := firstStmt(t, `<?php $x = $a ?: $c;`)
	tern2 := s2.(*phpast.ExprStmt).X.(*phpast.Assign).RHS.(*phpast.Ternary)
	if tern2.Then != nil {
		t.Error("short ternary should have nil Then")
	}
}

func TestParsePrecedence(t *testing.T) {
	t.Parallel()
	// "a" . $b . "c" is left associative; * binds tighter than +.
	s := firstStmt(t, `<?php $x = 1 + 2 * 3;`)
	add := s.(*phpast.ExprStmt).X.(*phpast.Assign).RHS.(*phpast.Binary)
	if add.Op != "+" {
		t.Fatalf("top op = %q, want +", add.Op)
	}
	mul, ok := add.R.(*phpast.Binary)
	if !ok || mul.Op != "*" {
		t.Fatalf("right = %#v, want * binary", add.R)
	}
}

func TestParseConcatenation(t *testing.T) {
	t.Parallel()
	s := firstStmt(t, `<?php echo "a" . $x . "b";`)
	outer, ok := s.(*phpast.Echo).Args[0].(*phpast.Binary)
	if !ok || outer.Op != "." {
		t.Fatalf("arg = %#v, want concat", s.(*phpast.Echo).Args[0])
	}
	inner, ok := outer.L.(*phpast.Binary)
	if !ok || inner.Op != "." {
		t.Fatalf("left = %#v, want concat (left assoc)", outer.L)
	}
}

func TestParseNew(t *testing.T) {
	t.Parallel()
	s := firstStmt(t, `<?php $w = new WP_Query($args);`)
	n, ok := s.(*phpast.ExprStmt).X.(*phpast.Assign).RHS.(*phpast.New)
	if !ok {
		t.Fatal("RHS should be *New")
	}
	if n.Class != "wp_query" || len(n.Args) != 1 {
		t.Fatalf("New = %#v", n)
	}
}

func TestParseIncludes(t *testing.T) {
	t.Parallel()
	f := mustParse(t, `<?php
include 'a.php';
include_once("b.php");
require 'c.php';
require_once(dirname(__FILE__) . '/d.php');`)
	if len(f.Stmts) != 4 {
		t.Fatalf("len(Stmts) = %d, want 4", len(f.Stmts))
	}
	kinds := []phpast.IncludeKind{
		phpast.IncInclude, phpast.IncIncludeOnce,
		phpast.IncRequire, phpast.IncRequireOnce,
	}
	for i, s := range f.Stmts {
		inc, ok := s.(*phpast.ExprStmt).X.(*phpast.IncludeExpr)
		if !ok {
			t.Fatalf("stmt %d = %T, want IncludeExpr", i, s.(*phpast.ExprStmt).X)
		}
		if inc.Kind != kinds[i] {
			t.Errorf("stmt %d kind = %v, want %v", i, inc.Kind, kinds[i])
		}
	}
}

func TestParseGlobalsAndUnset(t *testing.T) {
	t.Parallel()
	f := mustParse(t, `<?php
function f() {
	global $wpdb, $post;
	static $cache = array();
	unset($cache['x'], $post);
}`)
	fd := f.Stmts[0].(*phpast.FuncDecl)
	g, ok := fd.Body[0].(*phpast.Global)
	if !ok || len(g.Names) != 2 || g.Names[0] != "wpdb" {
		t.Fatalf("global = %#v", fd.Body[0])
	}
	sv, ok := fd.Body[1].(*phpast.StaticVars)
	if !ok || len(sv.Vars) != 1 || sv.Vars[0].Name != "cache" {
		t.Fatalf("static = %#v", fd.Body[1])
	}
	u, ok := fd.Body[2].(*phpast.Unset)
	if !ok || len(u.Vars) != 2 {
		t.Fatalf("unset = %#v", fd.Body[2])
	}
}

func TestParseClosure(t *testing.T) {
	t.Parallel()
	s := firstStmt(t, `<?php $f = function ($a) use (&$total) { $total += $a; };`)
	cl, ok := s.(*phpast.ExprStmt).X.(*phpast.Assign).RHS.(*phpast.Closure)
	if !ok {
		t.Fatal("RHS should be *Closure")
	}
	if len(cl.Params) != 1 || len(cl.Uses) != 1 {
		t.Fatalf("closure = %#v", cl)
	}
	if !cl.Uses[0].ByRef || cl.Uses[0].Name != "total" {
		t.Fatalf("use = %#v", cl.Uses[0])
	}
}

func TestParseTryCatch(t *testing.T) {
	t.Parallel()
	s := firstStmt(t, `<?php try { risky(); } catch (Exception $e) { log_it($e); }`)
	tr, ok := s.(*phpast.Try)
	if !ok {
		t.Fatalf("stmt = %T, want *Try", s)
	}
	if len(tr.Catches) != 1 || tr.Catches[0].Class != "Exception" || tr.Catches[0].Var != "e" {
		t.Fatalf("catches = %#v", tr.Catches)
	}
}

func TestParseReferenceAssignment(t *testing.T) {
	t.Parallel()
	s := firstStmt(t, `<?php $a =& $b;`)
	as := s.(*phpast.ExprStmt).X.(*phpast.Assign)
	if !as.ByRef {
		t.Error("assignment should be by-ref")
	}
}

func TestParseCasts(t *testing.T) {
	t.Parallel()
	s := firstStmt(t, `<?php $n = (int) $_GET['n'];`)
	c, ok := s.(*phpast.ExprStmt).X.(*phpast.Assign).RHS.(*phpast.Cast)
	if !ok || c.Type != "int" {
		t.Fatalf("RHS = %#v, want int cast", s.(*phpast.ExprStmt).X.(*phpast.Assign).RHS)
	}
}

func TestParseExitAndPrint(t *testing.T) {
	t.Parallel()
	f := mustParse(t, `<?php print $x; exit(1); die();`)
	if _, ok := f.Stmts[0].(*phpast.ExprStmt).X.(*phpast.PrintExpr); !ok {
		t.Error("stmt 0 should be PrintExpr")
	}
	if _, ok := f.Stmts[1].(*phpast.ExprStmt).X.(*phpast.ExitExpr); !ok {
		t.Error("stmt 1 should be ExitExpr")
	}
	if _, ok := f.Stmts[2].(*phpast.ExprStmt).X.(*phpast.ExitExpr); !ok {
		t.Error("stmt 2 (die) should be ExitExpr")
	}
}

func TestParseWordOperators(t *testing.T) {
	t.Parallel()
	s := firstStmt(t, `<?php $ok = isset($x) and valid($x);`)
	// "and" binds looser than "=", so the top node is the binary.
	bin, ok := s.(*phpast.ExprStmt).X.(*phpast.Binary)
	if !ok || bin.Op != "and" {
		t.Fatalf("expr = %#v, want and-binary", s.(*phpast.ExprStmt).X)
	}
	if _, ok := bin.L.(*phpast.Assign); !ok {
		t.Fatalf("left = %T, want Assign", bin.L)
	}
}

func TestParseDynamicCall(t *testing.T) {
	t.Parallel()
	s := firstStmt(t, `<?php $fn($arg);`)
	fc, ok := s.(*phpast.ExprStmt).X.(*phpast.FuncCall)
	if !ok || fc.NameExpr == nil {
		t.Fatalf("expr = %#v, want dynamic FuncCall", s.(*phpast.ExprStmt).X)
	}
}

func TestParseListAssignment(t *testing.T) {
	t.Parallel()
	s := firstStmt(t, `<?php list($a, $b) = explode(',', $csv);`)
	as := s.(*phpast.ExprStmt).X.(*phpast.Assign)
	le, ok := as.LHS.(*phpast.ListExpr)
	if !ok || len(le.Targets) != 2 {
		t.Fatalf("LHS = %#v, want 2-target list", as.LHS)
	}
}

func TestParseErrorRecovery(t *testing.T) {
	t.Parallel()
	// Malformed input parses with errors but terminates and keeps later
	// statements.
	f := Parse("bad.php", `<?php $x = ; echo $ok;`, Options{})
	if len(f.Errors) == 0 {
		t.Fatal("expected parse errors")
	}
	foundEcho := false
	for _, s := range f.Stmts {
		if _, ok := s.(*phpast.Echo); ok {
			foundEcho = true
		}
	}
	if !foundEcho {
		t.Fatal("echo after error should still be parsed")
	}
}

func TestParseKeywordMethodName(t *testing.T) {
	t.Parallel()
	s := firstStmt(t, `<?php $q->list();`)
	mc, ok := s.(*phpast.ExprStmt).X.(*phpast.MethodCall)
	if !ok || mc.Name != "list" {
		t.Fatalf("expr = %#v, want list() method call", s.(*phpast.ExprStmt).X)
	}
}

func TestParseLineNumbers(t *testing.T) {
	t.Parallel()
	src := "<?php\n$a = 1;\necho $a;\n"
	f := mustParse(t, src)
	if got := f.Stmts[0].Pos(); got != 2 {
		t.Errorf("stmt 0 line = %d, want 2", got)
	}
	if got := f.Stmts[1].Pos(); got != 3 {
		t.Errorf("stmt 1 line = %d, want 3", got)
	}
	if f.Lines != 4 {
		t.Errorf("file lines = %d, want 4", f.Lines)
	}
}

func TestParseNeverPanicsOrHangs(t *testing.T) {
	t.Parallel()
	inputs := []string{
		"",
		"<?php",
		"<?php ?>",
		"<?php {{{",
		"<?php class {",
		"<?php function",
		"<?php foreach",
		"<?php $a->",
		"<?php \"$",
		"<?php <<<EOT",
		"<?php switch ($x) {",
		"<?php if (",
		"no php at all",
		"<?php $a[ = 3; ]",
		"<?php ]]])))",
	}
	for _, src := range inputs {
		src := src
		t.Run(fmt.Sprintf("%.20q", src), func(t *testing.T) {
			t.Parallel()
			f := Parse("x.php", src, Options{})
			if f == nil {
				t.Fatal("Parse returned nil")
			}
		})
	}
}

// TestQuickParseTerminates feeds arbitrary bytes to the parser and checks
// it always terminates and returns a file (robustness property, paper
// §IV.A).
func TestQuickParseTerminates(t *testing.T) {
	t.Parallel()
	f := func(body string) bool {
		file := Parse("fuzz.php", "<?php "+body, Options{})
		return file != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStmtLinesWithinFile checks that every parsed statement carries a
// line number within the file bounds.
func TestQuickStmtLinesWithinFile(t *testing.T) {
	t.Parallel()
	f := func(body string) bool {
		src := "<?php\n" + body
		file := Parse("fuzz.php", src, Options{})
		ok := true
		phpast.InspectStmts(file.Stmts, func(n phpast.Node) bool {
			if n.Pos() < 0 || n.Pos() > file.Lines+1 {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// benchParseSource is BenchmarkParse's input, a small widget class.
const benchParseSource = `<?php
class Mail_Subscribe extends WP_Widget {
	public $prefix;
	function __construct() { $this->prefix = 'sml'; }
	function show($id) {
		global $wpdb;
		$rows = $wpdb->get_results("SELECT * FROM " . $wpdb->prefix . "sml");
		foreach ($rows as $row) {
			echo '<li>' . $row->sml_name . '</li>';
		}
		if (isset($_GET['page'])) {
			$page = $_GET['page'];
			echo "<a href='?page=$page'>next</a>";
		}
	}
}
`

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parse("bench.php", benchParseSource, Options{})
	}
}
