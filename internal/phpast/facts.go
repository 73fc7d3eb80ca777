package phpast

import "strings"

// Facts is what the parser records about a file while it builds the
// tree, so the model's inventory (§III.B), the include budget and the
// incremental planner read a file's declarations, call sites, includes
// and shared-state refs without walking its AST again. Facts do not
// depend on the engine's configuration: superglobals, for one, are
// recorded like any other global. Every slice has exact length, and
// the name lists hold each name once, in the order the parser first
// recorded it.
type Facts struct {
	// Nodes is the number of nodes a walk of the file with Inspect
	// visits.
	Nodes int
	// Funcs and Classes are the named function and class declarations
	// not nested in another function or class declaration, in source
	// order. One nested in a closure or a control block is listed.
	Funcs   []*FuncDecl
	Classes []*ClassDecl
	// CalledFuncs is the names called as functions: direct calls, and
	// the class of every new X, which may run a PHP 4 constructor
	// function named X.
	CalledFuncs []string
	// CalledMethods is the names called as methods: method calls with a
	// static name, static calls (even one without a name), and
	// "__construct" when the file instantiates a named class.
	CalledMethods []string
	// Constructed is the class of every new X.
	Constructed []string
	// ClassRefs is the classes named by static calls and static
	// property fetches.
	ClassRefs []string
	// Callbacks is the lower-cased function names passed as a literal
	// first argument to call_user_func, call_user_func_array or
	// array_map.
	Callbacks []string
	// Includes is the Literal of every include that has one, in AST
	// order.
	Includes []string
	// Globals is the variables of the shared global scope the file
	// touches: its top-level code's variables (function, method and
	// closure bodies get fresh scopes), the names of every global
	// statement, and the literal keys of every $GLOBALS fetch.
	Globals []GlobalRef
}

// GlobalRef is one global variable a file touches, and how.
type GlobalRef struct {
	// Name excludes the dollar sign.
	Name string
	// Read and Write report whether the file reads or writes it. The
	// targets of stores are marked read as well, since compound
	// assignments and element stores read the old value.
	Read, Write bool
}

// NewFile returns an empty file with an empty Facts attached, for the
// parser to fill as it builds the tree. The two share one allocation.
func NewFile(name string, lines int) *File {
	ff := &struct {
		f     File
		facts Facts
	}{f: File{Name: name, Lines: lines}}
	ff.f.facts = &ff.facts
	return &ff.f
}

// Facts returns what the parser recorded about f. A File the parser
// did not build has none, and Facts panics rather than let its reader
// take an empty inventory for a file without declarations.
func (f *File) Facts() *Facts {
	if f.facts == nil {
		panic("phpast: file " + f.Name + " has no facts: it was not built by the parser")
	}
	return f.facts
}

// Literal returns the include's path literal, normalized the way the
// engine resolves it: the rightmost string-literal component of Path
// (a literal, the right operand of a concatenation, or the last part of
// an interpolated string), without a leading slash. It is "" when Path
// ends in no string literal, and such an include names no file.
func (x *IncludeExpr) Literal() string {
	e := x.Path
	for {
		switch v := e.(type) {
		case *Literal:
			if v.Kind == LitString {
				return strings.TrimPrefix(v.Value, "/")
			}
			return ""
		case *Binary:
			if v.Op != "." {
				return ""
			}
			e = v.R
		case *InterpString:
			if len(v.Parts) == 0 {
				return ""
			}
			e = v.Parts[len(v.Parts)-1]
		default:
			return ""
		}
	}
}
