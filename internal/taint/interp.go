package taint

import (
	"strings"

	"repro/internal/analyzer"
	"repro/internal/phpast"
)

// scope is one variable scope: the global scope of the target, or a
// function/method activation. It is the engine's equivalent of a slice of
// the paper's parser_variables array (§III.C).
type scope struct {
	// vars maps variable name (without "$") to abstract value. For the
	// global scope this aliases analysis.globals.
	vars map[string]*value
	// isGlobal marks the target-wide top-level scope.
	isGlobal bool
	// globalNames lists names bound to the global scope via "global $x".
	globalNames map[string]bool
	// class is the enclosing class when analyzing a method ($this).
	class *classInfo
	// collector receives parameter-dependent data flows in summary mode;
	// nil outside function analysis.
	collector *summary
	// funcName labels trace steps ("inside render_widget").
	funcName string
}

// readVar resolves a variable read. Superglobal reads create fresh taint
// from the configuration (§III.A sources).
func (a *analysis) readVar(name string, sc *scope, line int) *value {
	if src, ok := a.cfg.Superglobal(name); ok {
		return newTaint(taintClasses(src.Taints), src.Vector, analyzer.TraceStep{
			File: a.curFile, Line: line, Var: "$" + name,
			Note: "source: superglobal",
		})
	}
	if !sc.isGlobal && sc.globalNames[name] {
		if v, ok := a.globals[name]; ok {
			return v
		}
		return untainted()
	}
	if v, ok := sc.vars[name]; ok {
		return v
	}
	return untainted()
}

// writeVar stores a variable.
func (a *analysis) writeVar(name string, v *value, sc *scope) {
	if _, isSuper := a.cfg.Superglobal(name); isSuper {
		return
	}
	if !sc.isGlobal && sc.globalNames[name] {
		a.globals[name] = v
		return
	}
	sc.vars[name] = v
}

// taintClasses expands an empty class list to all classes.
func taintClasses(cs []analyzer.VulnClass) []analyzer.VulnClass {
	if len(cs) == 0 {
		return analyzer.Classes()
	}
	return cs
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// execStmts walks a statement list in order. Per the paper (§III.C),
// conditionals and loops "do not change the data flow": their blocks are
// parsed normally in sequence.
func (a *analysis) execStmts(stmts []phpast.Stmt, sc *scope) {
	for _, s := range stmts {
		a.execStmt(s, sc)
	}
}

// execStmt dispatches one statement. Every dispatch is one taint
// propagation step; the count sizes a scan's abstract-interpretation
// work for the observability layer and charges the governor's step
// budget — this is the interpreter's cancellation checkpoint.
func (a *analysis) execStmt(s phpast.Stmt, sc *scope) {
	if a.gov.Halted() {
		return
	}
	a.gov.Step()
	a.stats.propagationSteps++
	switch st := s.(type) {
	case *phpast.ExprStmt:
		a.eval(st.X, sc)

	case *phpast.Echo:
		for _, arg := range st.Args {
			v := a.eval(arg, sc)
			a.checkSink("echo", analyzer.XSS, v, arg.Pos(), arg, sc)
		}

	case *phpast.Block:
		a.execStmts(st.List, sc)

	case *phpast.If:
		a.eval(st.Cond, sc)
		a.execStmts(st.Then, sc)
		for _, ei := range st.Elseifs {
			a.eval(ei.Cond, sc)
			a.execStmts(ei.Body, sc)
		}
		a.execStmts(st.Else, sc)

	case *phpast.While:
		a.eval(st.Cond, sc)
		a.execStmts(st.Body, sc)

	case *phpast.DoWhile:
		a.execStmts(st.Body, sc)
		a.eval(st.Cond, sc)

	case *phpast.For:
		for _, e := range st.Init {
			a.eval(e, sc)
		}
		for _, e := range st.Cond {
			a.eval(e, sc)
		}
		a.execStmts(st.Body, sc)
		for _, e := range st.Post {
			a.eval(e, sc)
		}

	case *phpast.Foreach:
		a.execForeach(st, sc)

	case *phpast.Switch:
		a.eval(st.Cond, sc)
		for _, c := range st.Cases {
			if c.Cond != nil {
				a.eval(c.Cond, sc)
			}
			a.execStmts(c.Body, sc)
		}

	case *phpast.Return:
		var v *value
		if st.X != nil {
			v = a.eval(st.X, sc)
		} else {
			v = untainted()
		}
		if sc.collector != nil {
			sc.collector.addReturn(v)
		}

	case *phpast.Global:
		if sc.globalNames == nil {
			sc.globalNames = make(map[string]bool, len(st.Names))
		}
		for _, n := range st.Names {
			sc.globalNames[n] = true
		}

	case *phpast.StaticVars:
		for _, sv := range st.Vars {
			if sv.Default != nil {
				a.writeVar(sv.Name, a.eval(sv.Default, sc), sc)
			}
		}

	case *phpast.Unset:
		// §III.C T_UNSET: destroying a variable marks it untainted.
		for _, target := range st.Vars {
			if v, ok := target.(*phpast.Var); ok {
				a.writeVar(v.Name, untainted(), sc)
			}
		}

	case *phpast.Throw:
		a.eval(st.X, sc)

	case *phpast.Try:
		a.execStmts(st.Body, sc)
		for _, c := range st.Catches {
			a.execStmts(c.Body, sc)
		}
		a.execStmts(st.Finally, sc)

	case *phpast.FuncDecl, *phpast.ClassDecl:
		// Declarations were inventoried during model construction.

	case *phpast.Break, *phpast.Continue, *phpast.InlineHTML, *phpast.BadStmt:
		// No data flow.
	}
}

// execForeach models foreach: elements of a tainted collection are
// tainted. This is how the paper's mail-subscribe-list example flows:
// $wpdb->get_results rows → foreach → echo $row->sml_name (§III.E).
func (a *analysis) execForeach(st *phpast.Foreach, sc *scope) {
	elem := a.eval(st.Expr, sc)
	if elem.hasTaint() {
		elem = elem.withStep(a.opts.MaxTraceDepth, analyzer.TraceStep{
			File: a.curFile, Line: st.Pos(), Var: exprName(st.Value),
			Note: "foreach element of " + exprName(st.Expr),
		})
	}
	if st.Key != nil {
		a.assignTo(st.Key, elem, sc, st.Pos())
	}
	if st.Value != nil {
		a.assignTo(st.Value, elem, sc, st.Pos())
	}
	a.execStmts(st.Body, sc)
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// eval computes the abstract value of an expression, raising findings at
// sinks along the way. A halted governor collapses evaluation to an
// untainted constant so deep expression trees unwind quickly.
func (a *analysis) eval(e phpast.Expr, sc *scope) *value {
	if a.gov.Halted() {
		return untainted()
	}
	switch x := e.(type) {
	case nil:
		return untainted()

	case *phpast.Literal:
		if x.Kind == phpast.LitInt || x.Kind == phpast.LitFloat {
			return numericValue()
		}
		return untainted()

	case *phpast.Var:
		return a.readVar(x.Name, sc, x.Pos())

	case *phpast.VarVar:
		a.eval(x.Expr, sc)
		return untainted()

	case *phpast.IndexFetch:
		// $GLOBALS['name'] aliases the global variable directly.
		if base, ok := x.Base.(*phpast.Var); ok && base.Name == "GLOBALS" {
			if key, ok := x.Index.(*phpast.Literal); ok && key.Kind == phpast.LitString {
				if v, ok := a.globals[key.Value]; ok {
					return v
				}
				return untainted()
			}
			return untainted()
		}
		return a.eval(x.Base, sc)

	case *phpast.InterpString:
		vals := make([]*value, 0, len(x.Parts))
		for _, part := range x.Parts {
			vals = append(vals, a.eval(part, sc))
		}
		v := mergeAll(vals...)
		if x.IsShell {
			// The backtick operator executes its content as a shell
			// command (command-injection sink).
			a.checkSink("`shell`", analyzer.CmdInjection, v, x.Pos(), x, sc)
			return untainted()
		}
		return v

	case *phpast.Binary:
		return a.evalBinary(x, sc)

	case *phpast.Unary:
		v := a.eval(x.X, sc)
		switch x.Op {
		case "@":
			return v
		case "-", "+", "~":
			return toNumeric()
		default: // "!"
			return untainted()
		}

	case *phpast.IncDec:
		a.eval(x.X, sc)
		return toNumeric()

	case *phpast.Assign:
		return a.evalAssign(x, sc)

	case *phpast.Ternary:
		condV := a.eval(x.Cond, sc)
		var thenV *value
		if x.Then != nil {
			thenV = a.eval(x.Then, sc)
		} else {
			thenV = condV // short ternary: cond ?: else
		}
		elseV := a.eval(x.Else, sc)
		return merge(thenV, elseV)

	case *phpast.Cast:
		v := a.eval(x.X, sc)
		switch x.Type {
		case "int", "float", "bool":
			return toNumeric()
		case "unset":
			return untainted()
		default:
			return v
		}

	case *phpast.ArrayLit:
		vals := make([]*value, 0, len(x.Items))
		for _, item := range x.Items {
			if item.Key != nil {
				a.eval(item.Key, sc)
			}
			vals = append(vals, a.eval(item.Value, sc))
		}
		return mergeAll(vals...)

	case *phpast.ListExpr:
		return untainted()

	case *phpast.IssetExpr, *phpast.EmptyExpr, *phpast.InstanceOf, *phpast.ConstFetch,
		*phpast.ClassConstFetch, *phpast.BadExpr:
		return untainted()

	case *phpast.FuncCall:
		return a.evalFuncCall(x, sc)

	case *phpast.MethodCall:
		return a.evalMethodCall(x, sc)

	case *phpast.StaticCall:
		return a.evalStaticCall(x, sc)

	case *phpast.New:
		return a.evalNew(x, sc)

	case *phpast.PropertyFetch:
		return a.readProperty(x, sc)

	case *phpast.StaticPropertyFetch:
		if ci := a.classes[x.Class]; ci != nil && a.opts.OOP {
			if v, ok := ci.props[x.Name]; ok {
				return v
			}
		}
		return untainted()

	case *phpast.PrintExpr:
		v := a.eval(x.X, sc)
		a.checkSink("print", analyzer.XSS, v, x.Pos(), x.X, sc)
		return untainted()

	case *phpast.ExitExpr:
		if x.X != nil {
			v := a.eval(x.X, sc)
			a.checkSink("exit", analyzer.XSS, v, x.Pos(), x.X, sc)
		}
		return untainted()

	case *phpast.CloneExpr:
		return a.eval(x.X, sc)

	case *phpast.IncludeExpr:
		a.execInclude(x, sc)
		return untainted()

	case *phpast.Closure:
		a.execClosure(x, sc)
		return untainted()

	default:
		return untainted()
	}
}

// evalBinary handles binary operators: "." concatenation merges taint;
// arithmetic neutralizes it (numbers cannot carry payloads); comparisons
// and logic yield booleans.
func (a *analysis) evalBinary(x *phpast.Binary, sc *scope) *value {
	l := a.eval(x.L, sc)
	r := a.eval(x.R, sc)
	switch x.Op {
	case ".":
		return merge(l, r)
	case "+", "-", "*", "/", "%", "<<", ">>", "|", "&", "^":
		return toNumeric()
	default: // comparisons, &&, ||, and, or, xor
		return untainted()
	}
}

// evalAssign handles =, .= and the arithmetic compound assignments.
func (a *analysis) evalAssign(x *phpast.Assign, sc *scope) *value {
	rhs := a.eval(x.RHS, sc)
	var v *value
	switch x.Op {
	case "=":
		v = rhs
	case ".=":
		v = merge(a.eval(x.LHS, sc), rhs)
	default: // numeric compound assignments
		a.eval(x.LHS, sc)
		v = toNumeric()
	}
	if v.hasTaint() {
		v = v.withStep(a.opts.MaxTraceDepth, analyzer.TraceStep{
			File: a.curFile, Line: x.Pos(), Var: exprName(x.LHS), Note: "assigned",
		})
	}
	a.assignTo(x.LHS, v, sc, x.Pos())
	return v
}

// assignTo stores a value into an assignable expression.
func (a *analysis) assignTo(lhs phpast.Expr, v *value, sc *scope, line int) {
	switch t := lhs.(type) {
	case *phpast.Var:
		a.writeVar(t.Name, v, sc)

	case *phpast.IndexFetch:
		// $GLOBALS['name'] = ... writes the global variable directly.
		if base, ok := t.Base.(*phpast.Var); ok && base.Name == "GLOBALS" {
			if key, ok := t.Index.(*phpast.Literal); ok && key.Kind == phpast.LitString {
				a.globals[key.Value] = v
			}
			return
		}
		// Element store: the whole container becomes tainted when the
		// element is (coarse array model).
		if t.Index != nil {
			a.eval(t.Index, sc)
		}
		base := a.eval(t.Base, sc)
		a.assignTo(t.Base, merge(base, v), sc, line)

	case *phpast.PropertyFetch:
		a.writeProperty(t, v, sc)

	case *phpast.StaticPropertyFetch:
		if ci := a.classes[t.Class]; ci != nil && a.opts.OOP {
			ci.props[t.Name] = v
		}

	case *phpast.ListExpr:
		for _, target := range t.Targets {
			if target != nil {
				a.assignTo(target, v, sc, line)
			}
		}
	}
}

// resolveObjectClass determines the class of a method-call or property
// receiver: $this, a configured framework global ($wpdb), or a variable
// holding a tracked "new X" value (§III.E).
func (a *analysis) resolveObjectClass(obj phpast.Expr, objVal *value, sc *scope) *classInfo {
	if !a.opts.OOP {
		return nil
	}
	if v, ok := obj.(*phpast.Var); ok {
		if v.Name == "this" && sc.class != nil {
			return sc.class
		}
	}
	if objVal != nil && objVal.class != "" {
		return a.classes[objVal.class]
	}
	return nil
}

// objClassName returns the best-known class name string for config
// lookups, even when the class is not user-defined (e.g. "wpdb").
func (a *analysis) objClassName(obj phpast.Expr, objVal *value, sc *scope) string {
	if v, ok := obj.(*phpast.Var); ok {
		if v.Name == "this" && sc.class != nil {
			return sc.class.decl.Name
		}
		if cls, ok := a.cfg.ObjectClass(v.Name); ok {
			return cls
		}
	}
	if objVal != nil {
		return objVal.class
	}
	return ""
}

// readProperty evaluates $obj->name.
func (a *analysis) readProperty(x *phpast.PropertyFetch, sc *scope) *value {
	objVal := a.eval(x.Object, sc)
	if !a.opts.OOP {
		return untainted()
	}
	if x.NameExpr != nil {
		a.eval(x.NameExpr, sc)
		return untainted()
	}
	if ci := a.resolveObjectClass(x.Object, objVal, sc); ci != nil {
		for c := ci; c != nil; c = c.parent {
			if v, ok := c.props[x.Name]; ok {
				return v
			}
		}
		return untainted()
	}
	// Unknown object: a property of a tainted value (a database row
	// object, for example) is tainted.
	if objVal.hasTaint() || objVal.hasParamDeps() || objVal.latent != nil {
		return objVal.withStep(a.opts.MaxTraceDepth, analyzer.TraceStep{
			File: a.curFile, Line: x.Pos(), Var: exprName(x),
			Note: "property of tainted object",
		})
	}
	return untainted()
}

// writeProperty stores into $obj->name.
func (a *analysis) writeProperty(x *phpast.PropertyFetch, v *value, sc *scope) {
	objVal := a.eval(x.Object, sc)
	if !a.opts.OOP || x.NameExpr != nil {
		return
	}
	if ci := a.resolveObjectClass(x.Object, objVal, sc); ci != nil {
		ci.props[x.Name] = v
	}
}

// execInclude follows include/require statically (§III.B: "as the PHP
// file can include other PHP files recursively, all of them must be
// analyzed to obtain the complete AST"). A tainted include path is a
// file-inclusion sink.
func (a *analysis) execInclude(x *phpast.IncludeExpr, sc *scope) {
	pathVal := a.eval(x.Path, sc)
	a.checkSink("include", analyzer.FileInclusion, pathVal, x.Pos(), x.Path, sc)
	path, ok := a.includes.Resolve(a.curFile, x.Literal())
	if !ok || a.includeStack[path] {
		return
	}
	f, ok := a.files[path]
	if !ok {
		return
	}
	a.includeStack[path] = true
	prev := a.curFile
	a.curFile = path
	a.execStmts(f.Stmts, sc)
	a.curFile = prev
	// The include stays on the stack: include_once semantics, and a
	// termination guarantee for mutually-including files.
}

// execClosure analyzes a closure body immediately in a fresh scope seeded
// with its use-clause captures, so sinks inside closures (hook callbacks)
// are still visited.
func (a *analysis) execClosure(x *phpast.Closure, sc *scope) {
	inner := &scope{
		vars:      make(map[string]*value, len(x.Uses)+len(x.Params)),
		class:     sc.class,
		collector: sc.collector,
		funcName:  sc.funcName + "{closure}",
	}
	for _, u := range x.Uses {
		inner.vars[u.Name] = a.readVar(u.Name, sc, x.Pos())
	}
	a.execStmts(x.Body, inner)
}

// exprName renders a short printable name for an expression, used in
// findings and traces.
func exprName(e phpast.Expr) string {
	switch x := e.(type) {
	case *phpast.Var:
		return "$" + x.Name
	case *phpast.PropertyFetch:
		if x.Name != "" {
			return exprName(x.Object) + "->" + x.Name
		}
		return exprName(x.Object) + "->{expr}"
	case *phpast.StaticPropertyFetch:
		return x.Class + "::$" + x.Name
	case *phpast.IndexFetch:
		idx := ""
		if lit, ok := x.Index.(*phpast.Literal); ok {
			idx = lit.Value
		}
		return exprName(x.Base) + "[" + idx + "]"
	case *phpast.FuncCall:
		if x.Name != "" {
			return x.Name + "()"
		}
		return "call()"
	case *phpast.MethodCall:
		return exprName(x.Object) + "->" + x.Name + "()"
	case *phpast.StaticCall:
		return x.Class + "::" + x.Name + "()"
	case *phpast.InterpString:
		// Name the attack-relevant interpolated variable: prefer plain
		// variables and array fetches over framework properties like
		// $wpdb->prefix, falling back to the last interpolated part.
		best := ""
		for _, p := range x.Parts {
			if _, isLit := p.(*phpast.Literal); isLit {
				continue
			}
			name := exprName(p)
			best = name
			switch p.(type) {
			case *phpast.Var, *phpast.IndexFetch:
				if !strings.HasPrefix(name, "$wpdb") {
					return name
				}
			}
		}
		if best != "" {
			return best
		}
		return `"..."`
	case *phpast.Binary:
		if x.Op == "." {
			// Prefer the attack-relevant side: superglobals first, then
			// any non-framework variable, then whatever is named.
			l, r := exprName(x.L), exprName(x.R)
			for _, cand := range []string{l, r} {
				if strings.Contains(cand, "$_") {
					return cand
				}
			}
			for _, cand := range []string{l, r} {
				if cand != "" && !strings.HasPrefix(cand, "$wpdb") {
					return cand
				}
			}
			if l != "" {
				return l
			}
			return r
		}
		return ""
	case *phpast.Literal:
		return ""
	default:
		return ""
	}
}
