package taint

import (
	"repro/internal/analyzer"
	"repro/internal/phpast"
)

// summary is the reusable data flow of one user-defined function or
// method: its abstract return value (which may depend symbolically on
// parameters) and the parameter-to-sink flows discovered in the body.
// The paper (§III.C): "every function is analyzed only the first time it
// is called ... The data flow of the variables of this analysis is used to
// process future calls."
type summary struct {
	// ret is the merged abstract value of all return statements.
	ret *value
	// flows lists parameter-dependent sink reaches inside the body.
	flows []sinkFlow
	// done marks the summary complete and reusable.
	done bool
	// file is the declaring file, so incremental scans can group
	// summaries into per-file artifacts (see artifact.go).
	file string
	// imported marks summaries seeded from a previous scan's artifacts;
	// they short-circuit re-analysis and are never re-exported.
	imported bool
}

// sinkFlow records that parameter 'param', if tainted for 'class',
// reaches the named sink at file:line. cwe/severity carry the sink
// rule's metadata (zero/empty = class defaults).
type sinkFlow struct {
	param    int
	class    analyzer.VulnClass
	sink     string
	file     string
	line     int
	variable string
	cwe      int
	severity string
}

// addReturn merges a return value into the summary.
func (s *summary) addReturn(v *value) {
	if s.ret == nil {
		s.ret = v
		return
	}
	s.ret = merge(s.ret, v)
}

// callUser analyzes a call to a user-defined function or method. In
// summary mode the body is analyzed once with symbolic parameters; later
// calls instantiate the recorded flows with the actual argument taints.
// With summaries disabled (whole-program ablation, §II), the body is
// re-analyzed with the concrete arguments at every call site.
func (a *analysis) callUser(key, file string, class *classInfo,
	params []phpast.Param, body []phpast.Stmt,
	args []*value, displayName string, line int, sc *scope) *value {

	if a.callDepth >= a.opts.MaxCallDepth {
		return untainted()
	}

	if !a.opts.FunctionSummaries {
		return a.callConcrete(key, file, class, params, body, args)
	}

	sum := a.summarizeFunction(key, file, class, params, body, args)
	if sum == nil {
		return untainted() // recursion in progress
	}
	return a.instantiate(sum, args, displayName, line)
}

// summarizeFunction analyzes a function body once and caches the result.
// Parameters are bound to the union of a symbolic marker (so later calls
// can be instantiated with their own argument taints) and the first
// call's concrete argument value — the paper's context: "every function
// is analyzed only the first time it is called, taking into account the
// context (parameters, global variables, scope) of the call" (§III.C).
// The concrete binding is what lets first-call taint flow into object
// properties and globals. It returns nil when the function is already
// being analyzed (recursion, §III.C: "functions that are called
// recursively are parsed only once to avoid endless loops").
func (a *analysis) summarizeFunction(key, file string, class *classInfo,
	params []phpast.Param, body []phpast.Stmt, args []*value) *summary {

	if sum, ok := a.summaries[key]; ok && sum.done {
		a.stats.summaryReuses++
		return sum
	}
	if a.inProgress[key] {
		return nil
	}
	a.inProgress[key] = true
	defer delete(a.inProgress, key)
	a.stats.funcsAnalyzed++

	sum := &summary{file: file}
	inner := &scope{
		vars:      make(map[string]*value, len(params)+4),
		class:     class,
		collector: sum,
		funcName:  key,
	}
	for i, p := range params {
		pv := paramValue(i)
		if i < len(args) && args[i] != nil {
			pv = merge(pv, args[i])
		}
		if p.Default != nil {
			a.eval(p.Default, inner) // defaults are harmless but may declare state
		}
		inner.vars[p.Name] = pv
	}

	prevFile, prevCollector := a.curFile, a.curCollector
	a.curFile, a.curCollector = file, sum
	a.callDepth++
	a.execStmts(body, inner)
	a.callDepth--
	a.curFile, a.curCollector = prevFile, prevCollector

	if sum.ret == nil {
		sum.ret = untainted()
	}
	sum.done = true
	a.summaries[key] = sum
	return sum
}

// instantiate applies a completed summary to concrete argument values:
// parameter-dependent sink flows with tainted arguments become findings,
// and the return value is the summary return with parameter dependencies
// substituted by the argument taints.
func (a *analysis) instantiate(sum *summary, args []*value, displayName string, line int) *value {
	for _, flow := range sum.flows {
		if flow.param >= len(args) || args[flow.param] == nil {
			continue
		}
		arg := args[flow.param]
		t, ok := arg.taints.get(flow.class)
		if !ok {
			continue
		}
		step := analyzer.TraceStep{
			File: a.curFile, Line: line, Var: displayName + "()",
			Note: "passed into " + displayName,
		}
		inner := t.withStep(a.opts.MaxTraceDepth, step)
		a.report(flow.sink, flow.class, flow.file, flow.line, flow.variable, inner,
			flow.cwe, flow.severity)
	}
	// Transitive parameter flows: an argument carrying outer-parameter
	// dependencies turns inner sink flows into outer sink flows.
	for _, flow := range sum.flows {
		if flow.param >= len(args) || args[flow.param] == nil {
			continue
		}
		arg := args[flow.param]
		for _, outer := range arg.params {
			if outer.classes.has(flow.class) {
				a.recordFlow(a.curCollector, sinkFlow{
					param:    outer.param,
					class:    flow.class,
					sink:     flow.sink,
					file:     flow.file,
					line:     flow.line,
					variable: flow.variable,
					cwe:      flow.cwe,
					severity: flow.severity,
				})
			}
		}
	}

	return a.substituteParams(sum.ret, args, displayName, line)
}

// substituteParams resolves a summary return value against concrete
// arguments: real taints survive; parameter dependencies import the
// matching argument taints (restricted to the classes that were not
// sanitized inside the callee).
func (a *analysis) substituteParams(ret *value, args []*value, displayName string, line int) *value {
	if ret == nil {
		return untainted()
	}
	out := ret.clone()
	deps := out.params
	out.params = nil
	var step analyzer.TraceStep // built on first use
	for _, dep := range deps {
		if dep.param >= len(args) || args[dep.param] == nil {
			continue
		}
		arg := args[dep.param]
		for vc := analyzer.VulnClass(1); int(vc) <= numClasses; vc++ {
			if !dep.classes.has(vc) {
				continue
			}
			if t, ok := arg.taints.get(vc); ok && !out.taints.set.has(vc) {
				if step.Var == "" {
					step = analyzer.TraceStep{
						File: a.curFile, Line: line, Var: displayName + "()",
						Note: "returned from " + displayName,
					}
				}
				out.taints.put(vc, t.withStep(a.opts.MaxTraceDepth, step))
			}
			// Keep outer-parameter dependencies flowing through.
			for _, outer := range arg.params {
				if outer.classes.has(vc) {
					out.params.add(outer.param, classBit(vc))
				}
			}
		}
	}
	return out
}

// callConcrete re-analyzes a body with concrete argument values — the
// whole-program ablation mode (§II: "a function is parsed every time it
// is called ... requires a lot of memory and processing power").
func (a *analysis) callConcrete(key, file string, class *classInfo,
	params []phpast.Param, body []phpast.Stmt, args []*value) *value {

	if a.inProgress[key] {
		return untainted()
	}
	a.inProgress[key] = true
	defer delete(a.inProgress, key)
	a.stats.funcsAnalyzed++

	collector := &summary{}
	inner := &scope{
		vars:      make(map[string]*value, len(params)+4),
		class:     class,
		collector: collector,
		funcName:  key,
	}
	for i, p := range params {
		if i < len(args) && args[i] != nil {
			inner.vars[p.Name] = args[i]
		} else if p.Default != nil {
			inner.vars[p.Name] = a.eval(p.Default, inner)
		} else {
			inner.vars[p.Name] = untainted()
		}
	}
	prevFile, prevCollector := a.curFile, a.curCollector
	a.curFile, a.curCollector = file, collector
	a.callDepth++
	a.execStmts(body, inner)
	a.callDepth--
	a.curFile, a.curCollector = prevFile, prevCollector

	if collector.ret == nil {
		return untainted()
	}
	return collector.ret
}

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

// checkSink inspects a value reaching a native sink (echo, backticks,
// include) whose CWE/severity metadata is the class default.
func (a *analysis) checkSink(sinkName string, class analyzer.VulnClass,
	v *value, line int, varExpr phpast.Expr, sc *scope) {
	a.checkSinkMeta(sinkName, class, v, line, varExpr, sc, 0, "")
}

// checkSinkMeta inspects a value reaching a sink. Active taint of the
// sink's class yields a finding; in summary mode, parameter dependence
// records a flow for call-site instantiation. varExpr is the expression
// that reached the sink, named (exprName) only when something is
// reported. cwe/severity carry the sink rule's metadata (zero/empty =
// class defaults).
func (a *analysis) checkSinkMeta(sinkName string, class analyzer.VulnClass,
	v *value, line int, varExpr phpast.Expr, sc *scope, cwe int, severity string) {
	a.stats.sinkChecks++
	if v == nil {
		return
	}
	if t, ok := v.taints.get(class); ok {
		a.report(sinkName, class, a.curFile, line, exprName(varExpr), t, cwe, severity)
	}
	if sc.collector != nil {
		for _, dep := range v.params {
			if dep.classes.has(class) {
				a.recordFlow(sc.collector, sinkFlow{
					param:    dep.param,
					class:    class,
					sink:     sinkName,
					file:     a.curFile,
					line:     line,
					variable: exprName(varExpr),
					cwe:      cwe,
					severity: severity,
				})
			}
		}
	}
}

// recordFlow appends a parameter→sink flow to a summary, deduplicating
// identical flows.
func (a *analysis) recordFlow(sum *summary, flow sinkFlow) {
	if sum == nil {
		return
	}
	for _, f := range sum.flows {
		if f == flow {
			return
		}
	}
	sum.flows = append(sum.flows, flow)
}

// report emits a finding with its data-flow trace. cwe and severity
// carry the sink rule's metadata; zero/empty fall back to the class
// defaults so native sinks (echo, backticks, include) need no rule.
func (a *analysis) report(sinkName string, class analyzer.VulnClass,
	file string, line int, varName string, t *taintInfo, cwe int, severity string) {

	if cwe == 0 {
		cwe = class.CWE()
	}
	if severity == "" {
		severity = class.Severity()
	}
	trace := make([]analyzer.TraceStep, 0, len(t.trace)+1)
	trace = append(trace, t.trace...)
	trace = append(trace, analyzer.TraceStep{
		File: file, Line: line, Var: varName, Note: "reaches sink " + sinkName,
	})
	a.result.Findings = append(a.result.Findings, analyzer.Finding{
		Tool:     a.eng.Name(),
		File:     file,
		Line:     line,
		Class:    class,
		Sink:     sinkName,
		Variable: trimDollar(varName),
		Vector:   t.vector,
		CWE:      cwe,
		Severity: severity,
		Trace:    trace,
	})
	a.gov.CheckFindings(len(a.result.Findings))
}

// trimDollar removes a leading "$" from a variable display name.
func trimDollar(s string) string {
	if len(s) > 0 && s[0] == '$' {
		return s[1:]
	}
	return s
}
