package taint

import (
	"strings"

	"repro/internal/analyzer"
	"repro/internal/config"
	"repro/internal/phpast"
)

// passthroughBuiltins are PHP string/array builtins whose result carries
// the taint of their arguments. phpSAFE treats functions it has no
// configuration entry for as taint-preserving — the conservative choice
// that also reproduces its documented false positives on custom
// sanitization the configuration does not know (§V.A).
var passthroughBuiltins = map[string]bool{
	"sprintf": true, "vsprintf": true, "implode": true, "join": true,
	"explode": true, "trim": true, "ltrim": true, "rtrim": true,
	"str_replace": true, "str_ireplace": true, "preg_replace": true,
	"substr": true, "strtolower": true, "strtoupper": true,
	"ucfirst": true, "ucwords": true, "lcfirst": true, "nl2br": true,
	"str_pad": true, "str_repeat": true, "wordwrap": true, "strrev": true,
	"array_merge": true, "array_values": true, "array_keys": true,
	"array_map": true, "array_filter": true, "array_slice": true,
	"array_pop": true, "array_shift": true, "reset": true, "end": true,
	"current": true, "serialize": true, "unserialize": true,
	"maybe_unserialize": true, "strval": true, "chunk_split": true,
}

// evalArgs evaluates call arguments left to right onto the argument
// stack, so a call allocates nothing for them. The caller releases them
// with popArgs once the call is done; until then the arguments of calls
// nested in the arguments or in the callee's body go above them.
func (a *analysis) evalArgs(args []phpast.Arg, sc *scope) []*value {
	base := len(a.argStack)
	for _, arg := range args {
		v := a.eval(arg.Value, sc)
		a.argStack = append(a.argStack, v)
	}
	return a.argStack[base:len(a.argStack):len(a.argStack)]
}

// popArgs releases the arguments evalArgs returned as vals, which must
// be the top of the stack.
func (a *analysis) popArgs(vals []*value) {
	base := len(a.argStack) - len(vals)
	clear(a.argStack[base:])
	a.argStack = a.argStack[:base]
}

// evalFuncCall handles calls to plain functions: configured sanitizers,
// reverts, sources and sinks; user-defined functions through summaries;
// and builtin pass-throughs (§III.C "call of a PHP or CMS framework
// built-in function").
func (a *analysis) evalFuncCall(x *phpast.FuncCall, sc *scope) *value {
	if x.NameExpr != nil {
		// Dynamic call: evaluate and propagate conservatively.
		a.eval(x.NameExpr, sc)
		argVals := a.evalArgs(x.Args, sc)
		defer a.popArgs(argVals)
		return mergeAll(argVals...)
	}
	name := x.Name
	argVals := a.evalArgs(x.Args, sc)
	defer a.popArgs(argVals)

	// Sanitizer: the return value is clean for the sanitized classes.
	if classes, ok := a.cfg.FunctionSanitizer(name); ok {
		a.stats.sanitizerHits++
		return mergeAll(argVals...).sanitize(classes, name)
	}

	// Revert: latent (sanitized) taint is re-activated (§III.A).
	if a.cfg.Revert(name) {
		return mergeAll(argVals...).revert(name, a.opts.MaxTraceDepth, analyzer.TraceStep{
			File: a.curFile, Line: x.Pos(), Var: name + "()",
			Note: "sanitization reverted by " + name,
		})
	}

	// Sink: check the sensitive arguments. A function may be both a sink
	// and a source (file_get_contents reads an attacker-chosen path and
	// returns attacker-influenced content), so the source check below
	// still runs; pure sinks return untainted after it.
	sinks := a.cfg.FunctionSinks(name)
	if len(sinks) > 0 {
		a.checkSinkArgs(sinks, name, x.Args, argVals, x.Pos(), sc)
	}

	// Source: the return value is attacker influenced.
	if src, ok := a.cfg.FunctionSource(name); ok {
		return newTaint(taintClasses(src.Taints), src.Vector, analyzer.TraceStep{
			File: a.curFile, Line: x.Pos(), Var: name + "()",
			Note: "source: " + name,
		})
	}
	if len(sinks) > 0 {
		return untainted()
	}

	// User-defined function: inter-procedural analysis via summary.
	if fi, ok := a.funcs[name]; ok {
		return a.callUser("func:"+name, fi.file, nil, fi.decl.Params, fi.decl.Body,
			argVals, name, x.Pos(), sc)
	}

	// Callable dispatch: call_user_func('fn', args...) and friends invoke
	// a user function named by their first argument — the idiom WordPress
	// itself uses to fire hooks.
	if v, handled := a.evalCallableDispatch(name, x, argVals, sc); handled {
		return v
	}

	// Builtin pass-through or unknown function: propagate argument taint.
	if passthroughBuiltins[name] || len(argVals) > 0 {
		return mergeAll(argVals...)
	}
	return untainted()
}

// evalCallableDispatch resolves string-callable invocation built-ins to
// the named user function. It reports handled=false when the call is not
// one of these built-ins or the callable is not a resolvable literal.
func (a *analysis) evalCallableDispatch(name string, x *phpast.FuncCall,
	argVals []*value, sc *scope) (*value, bool) {

	var calleeName string
	var calleeArgs []*value
	switch name {
	case "call_user_func":
		if len(x.Args) < 1 {
			return nil, false
		}
		calleeName = literalString(x.Args[0].Value)
		if len(argVals) > 1 {
			calleeArgs = argVals[1:]
		}
	case "call_user_func_array":
		if len(x.Args) < 1 {
			return nil, false
		}
		calleeName = literalString(x.Args[0].Value)
		// The packed argument array is coarse: every parameter receives
		// the array's merged taint.
		if len(argVals) > 1 {
			packed := argVals[1]
			calleeArgs = []*value{packed, packed, packed, packed}
		}
	case "array_map":
		if len(x.Args) < 2 {
			return nil, false
		}
		calleeName = literalString(x.Args[0].Value)
		calleeArgs = argVals[1:]
	default:
		return nil, false
	}
	if calleeName == "" {
		return nil, false
	}
	fi, ok := a.funcs[strings.ToLower(calleeName)]
	if !ok {
		return nil, false
	}
	ret := a.callUser("func:"+fi.decl.Name, fi.file, nil,
		fi.decl.Params, fi.decl.Body, calleeArgs, fi.decl.Name, x.Pos(), sc)
	if name == "array_map" {
		// array_map returns the mapped collection: element taint is the
		// callback's return taint.
		return ret, true
	}
	return ret, true
}

// literalString extracts a constant string from an expression, or "".
func literalString(e phpast.Expr) string {
	if lit, ok := e.(*phpast.Literal); ok && lit.Kind == phpast.LitString {
		return lit.Value
	}
	return ""
}

// evalMethodCall handles $obj->method(...) calls (§III.E): configured
// method sinks/sources/sanitizers on framework classes like wpdb, and
// summaries for user-defined methods.
func (a *analysis) evalMethodCall(x *phpast.MethodCall, sc *scope) *value {
	objVal := a.eval(x.Object, sc)
	argVals := a.evalArgs(x.Args, sc)
	defer a.popArgs(argVals)

	if !a.opts.OOP {
		// The OOP-blind ablation cannot see encapsulated flows at all —
		// the documented RIPS/Pixy limitation.
		return untainted()
	}
	if x.NameExpr != nil {
		a.eval(x.NameExpr, sc)
		return untainted()
	}
	name := x.Name
	className := a.objClassName(x.Object, objVal, sc)

	// Configured method sanitizer ($wpdb->prepare).
	if classes, ok := a.cfg.MethodSanitizer(className, name); ok {
		a.stats.sanitizerHits++
		return mergeAll(argVals...).sanitize(classes, className+"::"+name)
	}

	// Configured method sink ($wpdb->query and the read methods' query
	// argument are SQLi sinks).
	sinks := a.cfg.MethodSinks(className, name)
	if len(sinks) > 0 {
		a.checkSinkArgs(sinks, exprName(x.Object)+"->"+name, x.Args, argVals, x.Pos(), sc)
	}

	// Configured method source ($wpdb->get_results returns database
	// rows: likely-poisoned second-order data, §III.E).
	if src, ok := a.cfg.MethodSource(className, name); ok {
		return newTaint(taintClasses(src.Taints), src.Vector, analyzer.TraceStep{
			File: a.curFile, Line: x.Pos(), Var: exprName(x.Object) + "->" + name + "()",
			Note: "source: " + name,
		})
	}
	if len(sinks) > 0 {
		return untainted()
	}

	// User-defined method: resolve through the class hierarchy.
	if ci := a.resolveObjectClass(x.Object, objVal, sc); ci != nil {
		if mi := ci.method(name); mi != nil {
			return a.callUser(methodSummaryKey(mi), mi.file, mi.class,
				mi.decl.Params, mi.decl.Body, argVals, name, x.Pos(), sc)
		}
		return untainted()
	}

	// Unknown receiver: conservative pass-through of the receiver's and
	// arguments' taint (a method of a tainted row object yields tainted
	// data).
	if objVal.hasTaint() || objVal.hasParamDeps() {
		return merge(objVal, mergeAll(argVals...))
	}
	return untainted()
}

// methodSummaryKey builds the summary key for a resolved method.
func methodSummaryKey(mi *methodInfo) string {
	return "method:" + mi.class.decl.Name + "::" + mi.decl.Name
}

// evalStaticCall handles Class::method(...) including parent:: and
// self:: dispatch.
func (a *analysis) evalStaticCall(x *phpast.StaticCall, sc *scope) *value {
	argVals := a.evalArgs(x.Args, sc)
	defer a.popArgs(argVals)
	if !a.opts.OOP {
		return untainted()
	}
	className := x.Class
	var ci *classInfo
	switch className {
	case "self", "static":
		ci = sc.class
	case "parent":
		if sc.class != nil {
			ci = sc.class.parent
		}
	default:
		ci = a.classes[className]
	}
	if ci != nil {
		className = ci.decl.Name
	}

	if classes, ok := a.cfg.MethodSanitizer(className, x.Name); ok {
		a.stats.sanitizerHits++
		return mergeAll(argVals...).sanitize(classes, className+"::"+x.Name)
	}
	if sinks := a.cfg.MethodSinks(className, x.Name); len(sinks) > 0 {
		a.checkSinkArgs(sinks, className+"::"+x.Name, x.Args, argVals, x.Pos(), sc)
		return untainted()
	}
	if src, ok := a.cfg.MethodSource(className, x.Name); ok {
		return newTaint(taintClasses(src.Taints), src.Vector, analyzer.TraceStep{
			File: a.curFile, Line: x.Pos(), Var: className + "::" + x.Name + "()",
			Note: "source: " + x.Name,
		})
	}
	if ci != nil {
		if mi := ci.method(x.Name); mi != nil {
			return a.callUser(methodSummaryKey(mi), mi.file, mi.class,
				mi.decl.Params, mi.decl.Body, argVals, x.Name, x.Pos(), sc)
		}
	}
	return mergeAll(argVals...)
}

// evalNew handles object creation: the constructor runs like a method
// call, and the result is a value of the named class (§III.E: "object
// creation with the PHP new construct is parsed as a function").
func (a *analysis) evalNew(x *phpast.New, sc *scope) *value {
	argVals := a.evalArgs(x.Args, sc)
	defer a.popArgs(argVals)
	if x.ClassExpr != nil {
		a.eval(x.ClassExpr, sc)
		return untainted()
	}
	if !a.opts.OOP {
		return untainted()
	}
	className := x.Class
	if className == "self" || className == "static" {
		if sc.class != nil {
			className = sc.class.decl.Name
		}
	}
	if ci := a.classes[className]; ci != nil {
		ctor := ci.method("__construct")
		if ctor == nil {
			ctor = ci.method(className) // PHP 4 style constructor
		}
		if ctor != nil {
			a.callUser(methodSummaryKey(ctor), ctor.file, ctor.class,
				ctor.decl.Params, ctor.decl.Body, argVals, "__construct", x.Pos(), sc)
		}
	}
	return objectValue(className)
}

// checkSinkArgs applies sink declarations to evaluated call arguments.
func (a *analysis) checkSinkArgs(sinks []config.Sink, sinkName string,
	args []phpast.Arg, argVals []*value, line int, sc *scope) {
	for _, sink := range sinks {
		for i, v := range argVals {
			if !config.SinkSensitiveArg(sink, i) {
				continue
			}
			var varExpr phpast.Expr
			if i < len(args) {
				varExpr = args[i].Value
			}
			a.checkSinkMeta(sinkName, sink.Vuln, v, line, varExpr, sc, sink.CWE, sink.Severity)
		}
	}
}
