package phpast

// Inspect traverses the AST rooted at node in depth-first order, calling f
// for each node. If f returns false for a node, its children are skipped.
// Nil nodes are ignored.
func Inspect(node Node, f func(Node) bool) {
	if node == nil || !f(node) {
		return
	}
	EachChild(node, func(child Node) { Inspect(child, f) })
}

// InspectStmts traverses each statement in list with Inspect.
func InspectStmts(list []Stmt, f func(Node) bool) {
	for _, s := range list {
		Inspect(s, f)
	}
}

// EachChild calls fn for each direct child node of n in source order,
// skipping nil children. Leaves and unknown node types have none. It is
// exhaustive over the node types defined in this package and is the one
// place their child order is defined.
func EachChild(n Node, fn func(Node)) {
	switch x := n.(type) {
	case *VarVar:
		if x.Expr != nil {
			fn(x.Expr)
		}
	case *PropertyFetch:
		eachExpr(fn, x.Object, x.NameExpr)
	case *IndexFetch:
		eachExpr(fn, x.Base, x.Index)
	case *FuncCall:
		eachExpr(fn, x.NameExpr)
		eachArg(fn, x.Args)
	case *MethodCall:
		eachExpr(fn, x.Object, x.NameExpr)
		eachArg(fn, x.Args)
	case *StaticCall:
		eachArg(fn, x.Args)
	case *New:
		eachExpr(fn, x.ClassExpr)
		eachArg(fn, x.Args)
	case *Assign:
		eachExpr(fn, x.LHS, x.RHS)
	case *Binary:
		eachExpr(fn, x.L, x.R)
	case *Unary:
		eachExpr(fn, x.X)
	case *IncDec:
		eachExpr(fn, x.X)
	case *Ternary:
		eachExpr(fn, x.Cond, x.Then, x.Else)
	case *Cast:
		eachExpr(fn, x.X)
	case *InterpString:
		eachExpr(fn, x.Parts...)
	case *ArrayLit:
		for _, it := range x.Items {
			eachExpr(fn, it.Key, it.Value)
		}
	case *ListExpr:
		eachExpr(fn, x.Targets...)
	case *IssetExpr:
		eachExpr(fn, x.Vars...)
	case *EmptyExpr:
		eachExpr(fn, x.X)
	case *IncludeExpr:
		eachExpr(fn, x.Path)
	case *ExitExpr:
		eachExpr(fn, x.X)
	case *PrintExpr:
		eachExpr(fn, x.X)
	case *CloneExpr:
		eachExpr(fn, x.X)
	case *InstanceOf:
		eachExpr(fn, x.X)
	case *Closure:
		eachParam(fn, x.Params)
		eachStmt(fn, x.Body)

	case *ExprStmt:
		eachExpr(fn, x.X)
	case *Echo:
		eachExpr(fn, x.Args...)
	case *Block:
		eachStmt(fn, x.List)
	case *If:
		eachExpr(fn, x.Cond)
		eachStmt(fn, x.Then)
		for _, ei := range x.Elseifs {
			eachExpr(fn, ei.Cond)
			eachStmt(fn, ei.Body)
		}
		eachStmt(fn, x.Else)
	case *While:
		eachExpr(fn, x.Cond)
		eachStmt(fn, x.Body)
	case *DoWhile:
		eachStmt(fn, x.Body)
		eachExpr(fn, x.Cond)
	case *For:
		eachExpr(fn, x.Init...)
		eachExpr(fn, x.Cond...)
		eachExpr(fn, x.Post...)
		eachStmt(fn, x.Body)
	case *Foreach:
		eachExpr(fn, x.Expr, x.Key, x.Value)
		eachStmt(fn, x.Body)
	case *Switch:
		eachExpr(fn, x.Cond)
		for _, c := range x.Cases {
			eachExpr(fn, c.Cond)
			eachStmt(fn, c.Body)
		}
	case *Return:
		eachExpr(fn, x.X)
	case *StaticVars:
		for _, v := range x.Vars {
			eachExpr(fn, v.Default)
		}
	case *Unset:
		eachExpr(fn, x.Vars...)
	case *Throw:
		eachExpr(fn, x.X)
	case *Try:
		eachStmt(fn, x.Body)
		for _, c := range x.Catches {
			eachStmt(fn, c.Body)
		}
		eachStmt(fn, x.Finally)
	case *FuncDecl:
		eachParam(fn, x.Params)
		eachStmt(fn, x.Body)
	case *ClassDecl:
		for _, p := range x.Props {
			eachExpr(fn, p.Default)
		}
		for _, c := range x.Consts {
			eachExpr(fn, c.Value)
		}
		for _, m := range x.Methods {
			eachParam(fn, m.Params)
			eachStmt(fn, m.Body)
		}
	}
}

// eachExpr calls fn for each non-nil expression.
func eachExpr(fn func(Node), exprs ...Expr) {
	for _, e := range exprs {
		if !isNilExpr(e) {
			fn(e)
		}
	}
}

// eachArg calls fn for each argument value.
func eachArg(fn func(Node), args []Arg) {
	for _, a := range args {
		eachExpr(fn, a.Value)
	}
}

// eachParam calls fn for each parameter default.
func eachParam(fn func(Node), params []Param) {
	for _, p := range params {
		eachExpr(fn, p.Default)
	}
}

// eachStmt calls fn for each non-nil statement.
func eachStmt(fn func(Node), list []Stmt) {
	for _, s := range list {
		if s != nil {
			fn(s)
		}
	}
}

// isNilExpr reports whether e is nil, including a typed nil inside the
// interface.
func isNilExpr(e Expr) bool {
	if e == nil {
		return true
	}
	switch v := e.(type) {
	case *BadExpr:
		return v == nil
	case *Var:
		return v == nil
	default:
		return false
	}
}
