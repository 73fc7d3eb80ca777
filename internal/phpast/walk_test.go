package phpast

import (
	"testing"
)

// lit builds a string literal for test trees.
func lit(s string) *Literal {
	return &Literal{Kind: LitString, Value: s, Position: NewPosition(1)}
}

// v builds a variable node.
func v(name string) *Var { return &Var{Name: name, Position: NewPosition(1)} }

// children collects the direct children EachChild yields.
func children(n Node) []Node {
	var out []Node
	EachChild(n, func(c Node) { out = append(out, c) })
	return out
}

func TestInspectVisitsAllNodes(t *testing.T) {
	t.Parallel()
	// echo "a" . $x; inside if ($c) { ... } else { unset($y); }
	tree := &If{
		Cond: v("c"),
		Then: []Stmt{
			&Echo{Args: []Expr{&Binary{Op: ".", L: lit("a"), R: v("x")}}},
		},
		Else: []Stmt{
			&Unset{Vars: []Expr{v("y")}},
		},
	}
	var vars []string
	Inspect(tree, func(n Node) bool {
		if vv, ok := n.(*Var); ok {
			vars = append(vars, vv.Name)
		}
		return true
	})
	if len(vars) != 3 || vars[0] != "c" || vars[1] != "x" || vars[2] != "y" {
		t.Fatalf("vars = %v, want [c x y] in source order", vars)
	}
}

func TestInspectPrune(t *testing.T) {
	t.Parallel()
	tree := &FuncDecl{
		Name: "f",
		Body: []Stmt{&ExprStmt{X: v("inside")}},
	}
	seen := false
	Inspect(tree, func(n Node) bool {
		if _, ok := n.(*FuncDecl); ok {
			return false // prune
		}
		if vv, ok := n.(*Var); ok && vv.Name == "inside" {
			seen = true
		}
		return true
	})
	if seen {
		t.Fatal("pruned subtree was visited")
	}
}

func TestInspectNilSafe(t *testing.T) {
	t.Parallel()
	Inspect(nil, func(Node) bool { t.Fatal("callback on nil node"); return true })
	// Nodes with nil children must not panic.
	Inspect(&Ternary{Cond: v("c")}, func(Node) bool { return true })
	Inspect(&Return{}, func(Node) bool { return true })
	Inspect(&FuncCall{Name: "f"}, func(Node) bool { return true })
	Inspect(&Foreach{Expr: v("rows"), Value: v("r")}, func(Node) bool { return true })
}

func TestChildrenCoverage(t *testing.T) {
	t.Parallel()
	// Each node type yields its children; spot-check the complex ones.
	mc := &MethodCall{
		Object: v("obj"),
		Name:   "m",
		Args:   []Arg{{Value: lit("a")}, {Value: v("b")}},
	}
	if got := len(children(mc)); got != 3 {
		t.Errorf("MethodCall children = %d, want 3", got)
	}

	al := &ArrayLit{Items: []ArrayItem{
		{Key: lit("k"), Value: v("a")},
		{Value: v("b")},
	}}
	if got := len(children(al)); got != 3 {
		t.Errorf("ArrayLit children = %d, want 3", got)
	}

	sw := &Switch{
		Cond: v("mode"),
		Cases: []SwitchCase{
			{Cond: lit("a"), Body: []Stmt{&Break{}}},
			{Body: []Stmt{&Continue{}}},
		},
	}
	if got := len(children(sw)); got != 4 {
		t.Errorf("Switch children = %d, want 4", got)
	}

	cd := &ClassDecl{
		Name:  "c",
		Props: []PropertyDecl{{Name: "p", Default: lit("x")}},
		Methods: []MethodDecl{{
			Name:   "m",
			Params: []Param{{Name: "a", Default: lit("d")}},
			Body:   []Stmt{&Return{X: v("a")}},
		}},
	}
	if got := len(children(cd)); got != 3 {
		t.Errorf("ClassDecl children = %d, want 3 (prop default, param default, body stmt)", got)
	}

	try := &Try{
		Body:    []Stmt{&Break{}},
		Catches: []Catch{{Class: "E", Var: "e", Body: []Stmt{&Continue{}}}},
		Finally: []Stmt{&Break{}},
	}
	if got := len(children(try)); got != 3 {
		t.Errorf("Try children = %d, want 3", got)
	}
}

func TestInspectStmts(t *testing.T) {
	t.Parallel()
	stmts := []Stmt{
		&ExprStmt{X: v("a")},
		&Echo{Args: []Expr{v("b")}},
	}
	count := 0
	InspectStmts(stmts, func(n Node) bool {
		if _, ok := n.(*Var); ok {
			count++
		}
		return true
	})
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestPositions(t *testing.T) {
	t.Parallel()
	n := &Echo{Position: NewPosition(42)}
	if n.Pos() != 42 {
		t.Errorf("Pos() = %d, want 42", n.Pos())
	}
}

func TestChildrenMoreNodeTypes(t *testing.T) {
	t.Parallel()
	cases := []struct {
		node Node
		want int
	}{
		{&While{Cond: v("c"), Body: []Stmt{&Break{}}}, 2},
		{&DoWhile{Body: []Stmt{&Break{}}, Cond: v("c")}, 2},
		{&For{Init: []Expr{v("i")}, Cond: []Expr{v("c")}, Post: []Expr{v("p")},
			Body: []Stmt{&Continue{}}}, 4},
		{&Foreach{Expr: v("rows"), Key: v("k"), Value: v("x"), Body: []Stmt{&Break{}}}, 4},
		{&Ternary{Cond: v("c"), Then: v("t"), Else: v("e")}, 3},
		{&Cast{Type: "int", X: v("x")}, 1},
		{&Unary{Op: "!", X: v("x")}, 1},
		{&IncDec{Op: "++", X: v("x")}, 1},
		{&InterpString{Parts: []Expr{lit("a"), v("x")}}, 2},
		{&ListExpr{Targets: []Expr{v("a"), nil, v("b")}}, 2},
		{&IssetExpr{Vars: []Expr{v("a"), v("b")}}, 2},
		{&EmptyExpr{X: v("x")}, 1},
		{&IncludeExpr{Kind: IncRequire, Path: lit("f.php")}, 1},
		{&ExitExpr{X: v("x")}, 1},
		{&PrintExpr{X: v("x")}, 1},
		{&CloneExpr{X: v("x")}, 1},
		{&InstanceOf{X: v("x"), Class: "C"}, 1},
		{&StaticCall{Class: "C", Name: "m", Args: []Arg{{Value: v("a")}}}, 1},
		{&New{Class: "c", Args: []Arg{{Value: v("a")}, {Value: v("b")}}}, 2},
		{&VarVar{Expr: v("x")}, 1},
		{&PropertyFetch{Object: v("o"), NameExpr: v("n")}, 2},
		{&IndexFetch{Base: v("b"), Index: v("i")}, 2},
		{&Assign{LHS: v("a"), RHS: v("b"), Op: "="}, 2},
		{&Binary{Op: ".", L: v("a"), R: v("b")}, 2},
		{&Closure{Params: []Param{{Name: "p", Default: lit("d")}},
			Body: []Stmt{&Return{X: v("p")}}}, 2},
		{&Throw{X: v("x")}, 1},
		{&Return{X: v("x")}, 1},
		{&Unset{Vars: []Expr{v("a")}}, 1},
		{&Echo{Args: []Expr{v("a"), lit("b")}}, 2},
		{&Block{List: []Stmt{&Break{}, &Continue{}}}, 2},
		{&StaticVars{Vars: []StaticVar{{Name: "s", Default: lit("d")}, {Name: "t"}}}, 1},
		{&FuncCall{Name: "f", Args: []Arg{{Value: v("a")}}}, 1},
		{&MethodCall{Object: v("o"), NameExpr: v("m"), Args: []Arg{{Value: v("a")}}}, 3},
		{&Var{Name: "leaf"}, 0},
		{&Literal{Kind: LitInt, Value: "1"}, 0},
		{&BadExpr{Reason: "x"}, 0},
		{&BadStmt{Reason: "x"}, 0},
		{&InlineHTML{Text: "<p>"}, 0},
	}
	for i, tc := range cases {
		if got := len(children(tc.node)); got != tc.want {
			t.Errorf("case %d (%T): children = %d, want %d", i, tc.node, got, tc.want)
		}
	}
}

func TestEachChildOrder(t *testing.T) {
	t.Parallel()
	var nilVar *Var
	a, b, c, d := v("a"), v("b"), v("c"), v("d")
	brk, els := &Break{}, &ExprStmt{X: c}
	cases := []struct {
		node Node
		want []Node
	}{
		{&MethodCall{Object: a, NameExpr: b, Args: []Arg{{Value: c}, {Value: nilVar}, {Value: d}}}, []Node{a, b, c, d}},
		{&FuncCall{NameExpr: a, Args: []Arg{{Value: b}}}, []Node{a, b}},
		{&New{ClassExpr: a, Args: []Arg{{Value: b}}}, []Node{a, b}},
		{&DoWhile{Body: []Stmt{brk, nil}, Cond: a}, []Node{brk, a}},
		{&ArrayLit{Items: []ArrayItem{{Key: a, Value: b}, {Value: c}}}, []Node{a, b, c}},
		{&If{Cond: a, Then: []Stmt{brk}, Elseifs: []ElseIf{{Cond: b}}, Else: []Stmt{els}},
			[]Node{a, brk, b, els}},
		{&Ternary{Cond: a, Else: b}, []Node{a, b}},
		{&VarVar{}, nil},
	}
	for i, tc := range cases {
		got := children(tc.node)
		if len(got) != len(tc.want) {
			t.Errorf("case %d (%T): %d children, want %d", i, tc.node, len(got), len(tc.want))
			continue
		}
		for j := range got {
			if got[j] != tc.want[j] {
				t.Errorf("case %d (%T): child %d = %#v, want %#v", i, tc.node, j, got[j], tc.want[j])
			}
		}
	}
}
