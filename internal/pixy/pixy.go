// Package pixy reimplements the Pixy static analyzer (Jovanovic, Kruegel
// & Kirda, IEEE S&P 2006) at the fidelity the phpSAFE paper's comparison
// depends on (DSN 2015, §II, §IV-V).
//
// Pixy is a flow-sensitive, inter-procedural, context-sensitive forward
// data-flow analyzer with precise alias analysis — but it has not been
// updated since 2007, and the paper's results hinge on that envelope:
//
//   - It "does not parse Object Oriented constructs" (§II): a file that
//     declares a class fails to analyze entirely (the paper counts 32
//     such failures), and stray object-operator uses raise error messages.
//   - It models the register_globals=1 PHP directive: an uninitialized
//     variable can be injected by an attacker via the request, so using
//     one in a sink is reported (§V.A: "half of the vulnerabilities it
//     found were due to this directive").
//   - It only analyzes code reachable from each file's main flow: unlike
//     phpSAFE and RIPS it cannot detect vulnerabilities in functions that
//     are never called from the plugin (§V.A).
//   - Its sanitizer knowledge is frozen in 2007: filter_var, filter_input,
//     json_encode and every WordPress function are unknown.
//   - Alias analysis: reference assignments ($a =& $b) make both names
//     point to the same abstract cell (the paper's "-A" flag).
package pixy

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/analyzer"
	"repro/internal/config"
	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/phpast"
	"repro/internal/pipeline"
	"repro/internal/rulepack"
)

// maxCallDepth bounds inter-procedural descent.
const maxCallDepth = 16

// Engine is the Pixy-like analyzer. It is immutable and safe for
// concurrent use on distinct targets.
type Engine struct {
	cfg *config.Compiled
	// registerGlobals enables the register_globals=1 modeling.
	registerGlobals bool
	// rec receives metrics and spans; nil disables instrumentation.
	rec *obs.Recorder
}

var _ analyzer.Analyzer = (*Engine)(nil)

// New returns a Pixy engine with its 2007-era configuration.
func New() *Engine {
	return &Engine{cfg: config.Compile(profile2007()), registerGlobals: true}
}

// profile2007 trims the builtin generic pack down to what a tool frozen
// in 2007 knows: no filter extension, no JSON, and of course no WordPress.
func profile2007() config.Profile {
	g, err := rulepack.NewRegistry().Resolve("generic")
	if err != nil {
		panic(err)
	}
	unknown := map[string]bool{
		"filter_var":   true,
		"filter_input": true,
		"json_encode":  true,
		"absint":       true,
	}
	sanitizers := g.Sanitizers[:0]
	for _, s := range g.Sanitizers {
		if !unknown[s.Name] {
			sanitizers = append(sanitizers, s)
		}
	}
	g.Sanitizers = sanitizers
	g.Name = "pixy-2007"
	return g
}

// Name returns the tool name used in reports.
func (e *Engine) Name() string { return "Pixy" }

// OptionsFingerprint identifies the configuration the engine scans with,
// so cached results are never reused across different rule sets.
func (e *Engine) OptionsFingerprint() string { return "pixy|cfg:" + e.cfg.Digest() }

// WithRecorder returns a copy of the engine that records per-plugin
// model/analysis stage spans and parse metrics into rec.
func (e *Engine) WithRecorder(rec *obs.Recorder) *Engine {
	clone := *e
	clone.rec = rec
	return &clone
}

// AnalyzeContext scans one plugin target under a context and resource
// budgets (the analyzer.Analyzer contract). Per-file analysis is
// crash-isolated; a halted governor stops the scan between files and
// inside the forward data-flow walk.
func (e *Engine) AnalyzeContext(ctx context.Context, target *analyzer.Target, opts *analyzer.ScanOptions) (*analyzer.Result, error) {
	if target == nil {
		return nil, fmt.Errorf("pixy: nil target")
	}
	gov := govern.New(ctx, opts, e.rec)
	workers := opts.EffectiveFileWorkers()
	res := &analyzer.Result{Tool: e.Name(), Target: target.Name}

	scan := e.rec.StartNamedSpan("scan:", target.Name, nil)

	// Parse everything up front; function definitions resolve per file
	// only (Pixy does not build a whole-plugin model).
	msp := scan.StartChild("model")
	files := pipeline.ParseFiles(target.Files, nil, e.rec, msp, gov, workers)
	paths := make([]string, 0, len(target.Files))
	for _, sf := range target.Files {
		paths = append(paths, sf.Path)
	}
	sort.Strings(paths)
	msp.EndAndObserve("stage_model_seconds")

	// Pixy keeps no whole-plugin state at all, so the per-file forward
	// walk fans across the worker pool: one Result shard per file,
	// merged in sorted path order for byte-identical output.
	tsp := scan.StartChild("taint")
	shards := make([]*analyzer.Result, len(paths))
	govern.ForkJoin(gov, workers, len(paths), func(child *govern.Governor, _, idx int) {
		path := paths[idx]
		file := files[path]
		shard := &analyzer.Result{}
		shards[idx] = shard
		if hasClassDecl(file) {
			// OOP file: total parse failure, as the paper observed on 32
			// of the 2014 files.
			shard.FilesFailed = append(shard.FilesFailed, path)
			shard.Errors = append(shard.Errors, fmt.Sprintf(
				"%s: parse error: unexpected T_CLASS (object-oriented code is not supported)", path))
			return
		}
		child.CheckNow()
		if child.ScanHalted() {
			return
		}
		fa := &fileAnalysis{
			eng:  e,
			res:  shard,
			path: path,
			fns:  collectFunctions(file),
			vars: make(map[string]*cell),
			gov:  child,
		}
		ok := govern.Protect(child, path, shard, func() {
			child.BeginFile(path)
			fa.execStmts(file.Stmts)
		})
		if child.EndFile() {
			shard.FilesFailed = append(shard.FilesFailed, path)
			shard.Errors = append(shard.Errors, fmt.Sprintf(
				"%s: file time slice exhausted; file not fully analyzed", path))
			return
		}
		if ok && !child.ScanHalted() {
			shard.FilesAnalyzed++
			shard.LinesAnalyzed += file.Lines
		}
	})
	for _, shard := range shards {
		if shard != nil {
			res.Merge(shard)
		}
	}
	tsp.EndAndObserve("stage_taint_seconds")
	res.Dedup()
	err := gov.Finish(res)
	scan.End()
	return res, err
}

// hasClassDecl reports whether a file declares a class or interface.
func hasClassDecl(f *phpast.File) bool {
	found := false
	phpast.InspectStmts(f.Stmts, func(n phpast.Node) bool {
		if _, ok := n.(*phpast.ClassDecl); ok {
			found = true
			return false
		}
		return !found
	})
	return found
}

// collectFunctions inventories a single file's function declarations.
func collectFunctions(f *phpast.File) map[string]*phpast.FuncDecl {
	fns := make(map[string]*phpast.FuncDecl)
	phpast.InspectStmts(f.Stmts, func(n phpast.Node) bool {
		if fd, ok := n.(*phpast.FuncDecl); ok && fd.Name != "" {
			if _, dup := fns[fd.Name]; !dup {
				fns[fd.Name] = fd
			}
			return false
		}
		return true
	})
	return fns
}

// taint is Pixy's per-class taint lattice element.
type taint struct {
	classes map[analyzer.VulnClass]bool
	vector  analyzer.Vector
	source  string
}

// cell is one abstract memory location. Alias analysis makes several
// variable names share a cell.
type cell struct {
	t *taint
	// defined marks locations that have been assigned; undefined reads
	// trigger the register_globals modeling.
	defined bool
}

// fileAnalysis is the forward walk over one file.
type fileAnalysis struct {
	eng  *Engine
	res  *analyzer.Result
	path string
	fns  map[string]*phpast.FuncDecl

	// vars is the current scope: variable name → cell (aliases share).
	vars map[string]*cell

	// objectErrorOnce limits object-operator error spam per file.
	objectErrorOnce bool
	callDepth       int
	// inFunction marks non-main scope (register_globals only applies to
	// the main scope's undefined variables).
	inFunction bool
	// gov carries the scan's budgets into the statement walk (nil when
	// ungoverned).
	gov *govern.Governor
}

// lookup returns the cell for a variable, creating an undefined cell on
// first sight.
func (fa *fileAnalysis) lookup(name string) *cell {
	if c, ok := fa.vars[name]; ok {
		return c
	}
	c := &cell{}
	fa.vars[name] = c
	return c
}

// readVar models a variable read, including superglobals and the
// register_globals injection channel.
func (fa *fileAnalysis) readVar(name string, line int) *taint {
	if src, ok := fa.eng.cfg.Superglobal(name); ok {
		return sourceTaint(src, "$"+name)
	}
	c := fa.lookup(name)
	if c.defined {
		return c.t
	}
	if fa.eng.registerGlobals && !fa.inFunction {
		// register_globals=1: ?name=payload initializes $name from the
		// request before the script runs.
		return &taint{
			classes: map[analyzer.VulnClass]bool{analyzer.XSS: true, analyzer.SQLi: true},
			vector:  analyzer.VectorRequest,
			source:  "register_globals $" + name,
		}
	}
	return nil
}

// sourceTaint builds the taint of a configured source.
func sourceTaint(src config.Source, label string) *taint {
	classes := src.Taints
	if len(classes) == 0 {
		classes = analyzer.Classes()
	}
	m := make(map[analyzer.VulnClass]bool, len(classes))
	for _, c := range classes {
		m[c] = true
	}
	return &taint{classes: m, vector: src.Vector, source: label}
}

// mergeTaint unions two lattice elements.
func mergeTaint(a, b *taint) *taint {
	if a == nil || len(a.classes) == 0 {
		return b
	}
	if b == nil || len(b.classes) == 0 {
		return a
	}
	m := make(map[analyzer.VulnClass]bool, len(a.classes)+len(b.classes))
	for c := range a.classes {
		m[c] = true
	}
	for c := range b.classes {
		m[c] = true
	}
	return &taint{classes: m, vector: a.vector, source: a.source}
}

// sanitizeTaint removes classes from a lattice element.
func sanitizeTaint(t *taint, classes []analyzer.VulnClass) *taint {
	if t == nil {
		return nil
	}
	m := make(map[analyzer.VulnClass]bool, len(t.classes))
	for c := range t.classes {
		m[c] = true
	}
	for _, c := range classes {
		delete(m, c)
	}
	if len(m) == 0 {
		return nil
	}
	return &taint{classes: m, vector: t.vector, source: t.source}
}

// tainted reports whether t carries class c.
func (t *taint) tainted(c analyzer.VulnClass) bool { return t != nil && t.classes[c] }

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// execStmts walks statements in order (flow-sensitive forward analysis).
func (fa *fileAnalysis) execStmts(stmts []phpast.Stmt) {
	for _, s := range stmts {
		fa.execStmt(s)
	}
}

// execStmt dispatches one statement. It is the walk's governance
// checkpoint.
func (fa *fileAnalysis) execStmt(s phpast.Stmt) {
	if fa.gov.Halted() {
		return
	}
	fa.gov.Step()
	switch st := s.(type) {
	case *phpast.ExprStmt:
		fa.eval(st.X)
	case *phpast.Echo:
		for _, arg := range st.Args {
			t := fa.eval(arg)
			fa.checkSink("echo", analyzer.XSS, t, arg.Pos(), arg)
		}
	case *phpast.Block:
		fa.execStmts(st.List)
	case *phpast.If:
		fa.eval(st.Cond)
		fa.execStmts(st.Then)
		for _, ei := range st.Elseifs {
			fa.eval(ei.Cond)
			fa.execStmts(ei.Body)
		}
		fa.execStmts(st.Else)
	case *phpast.While:
		fa.eval(st.Cond)
		fa.execStmts(st.Body)
	case *phpast.DoWhile:
		fa.execStmts(st.Body)
		fa.eval(st.Cond)
	case *phpast.For:
		for _, e := range st.Init {
			fa.eval(e)
		}
		for _, e := range st.Cond {
			fa.eval(e)
		}
		fa.execStmts(st.Body)
		for _, e := range st.Post {
			fa.eval(e)
		}
	case *phpast.Foreach:
		coll := fa.eval(st.Expr)
		if v, ok := st.Value.(*phpast.Var); ok {
			c := fa.lookup(v.Name)
			c.t, c.defined = coll, true
		}
		if k, ok := st.Key.(*phpast.Var); ok {
			c := fa.lookup(k.Name)
			c.t, c.defined = coll, true
		}
		fa.execStmts(st.Body)
	case *phpast.Switch:
		fa.eval(st.Cond)
		for _, c := range st.Cases {
			if c.Cond != nil {
				fa.eval(c.Cond)
			}
			fa.execStmts(c.Body)
		}
	case *phpast.Return:
		if st.X != nil {
			t := fa.eval(st.X)
			ret := fa.lookup(retName)
			ret.t, ret.defined = mergeTaint(ret.t, t), true
		}
	case *phpast.Global:
		// Pixy treats globals inside functions as undefined-but-declared
		// (it analyzes per reachable call; we approximate with defined
		// empty cells so register_globals does not fire on them).
		for _, n := range st.Names {
			c := fa.lookup(n)
			c.defined = true
		}
	case *phpast.StaticVars:
		for _, sv := range st.Vars {
			c := fa.lookup(sv.Name)
			c.defined = true
			if sv.Default != nil {
				c.t = fa.eval(sv.Default)
			}
		}
	case *phpast.Unset:
		for _, v := range st.Vars {
			if vv, ok := v.(*phpast.Var); ok {
				fa.vars[vv.Name] = &cell{defined: true}
			}
		}
	case *phpast.Throw:
		fa.eval(st.X)
	case *phpast.Try:
		fa.execStmts(st.Body)
		for _, c := range st.Catches {
			fa.execStmts(c.Body)
		}
		fa.execStmts(st.Finally)
	case *phpast.FuncDecl, *phpast.ClassDecl, *phpast.InlineHTML,
		*phpast.Break, *phpast.Continue, *phpast.BadStmt:
		// Declarations inventoried separately; no data flow here.
	}
}

// retName is the pseudo-variable collecting return values.
const retName = "\x00return"

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// eval computes the taint of an expression. A halted governor
// collapses evaluation so deep trees unwind quickly.
func (fa *fileAnalysis) eval(e phpast.Expr) *taint {
	if fa.gov.Halted() {
		return nil
	}
	switch x := e.(type) {
	case nil:
		return nil
	case *phpast.Literal, *phpast.ConstFetch, *phpast.ClassConstFetch:
		return nil
	case *phpast.Var:
		return fa.readVar(x.Name, x.Pos())
	case *phpast.VarVar:
		fa.eval(x.Expr)
		return nil
	case *phpast.IndexFetch:
		return fa.eval(x.Base)
	case *phpast.InterpString:
		var t *taint
		for _, p := range x.Parts {
			t = mergeTaint(t, fa.eval(p))
		}
		return t
	case *phpast.Binary:
		l := fa.eval(x.L)
		r := fa.eval(x.R)
		if x.Op == "." {
			return mergeTaint(l, r)
		}
		return nil
	case *phpast.Unary:
		t := fa.eval(x.X)
		if x.Op == "@" {
			return t
		}
		return nil
	case *phpast.IncDec:
		fa.eval(x.X)
		return nil
	case *phpast.Assign:
		return fa.evalAssign(x)
	case *phpast.Ternary:
		c := fa.eval(x.Cond)
		var th *taint
		if x.Then != nil {
			th = fa.eval(x.Then)
		} else {
			th = c
		}
		return mergeTaint(th, fa.eval(x.Else))
	case *phpast.Cast:
		t := fa.eval(x.X)
		switch x.Type {
		case "int", "float", "bool", "unset":
			return nil
		default:
			return t
		}
	case *phpast.ArrayLit:
		var t *taint
		for _, it := range x.Items {
			fa.eval(it.Key)
			t = mergeTaint(t, fa.eval(it.Value))
		}
		return t
	case *phpast.IssetExpr, *phpast.EmptyExpr, *phpast.InstanceOf, *phpast.ListExpr:
		return nil
	case *phpast.FuncCall:
		return fa.evalCall(x)
	case *phpast.PrintExpr:
		t := fa.eval(x.X)
		fa.checkSink("print", analyzer.XSS, t, x.Pos(), x.X)
		return nil
	case *phpast.ExitExpr:
		if x.X != nil {
			t := fa.eval(x.X)
			fa.checkSink("exit", analyzer.XSS, t, x.Pos(), x.X)
		}
		return nil
	case *phpast.MethodCall, *phpast.PropertyFetch, *phpast.StaticCall,
		*phpast.New, *phpast.StaticPropertyFetch, *phpast.CloneExpr:
		fa.objectError(e.Pos())
		return nil
	case *phpast.IncludeExpr:
		// Pixy does not expand plugin includes; variables defined in the
		// included file stay invisible (register_globals noise source).
		fa.eval(x.Path)
		return nil
	case *phpast.Closure:
		// 2007 predates closures entirely.
		fa.objectError(e.Pos())
		return nil
	default:
		return nil
	}
}

// objectError records one "unsupported construct" error per file.
func (fa *fileAnalysis) objectError(line int) {
	if fa.objectErrorOnce {
		return
	}
	fa.objectErrorOnce = true
	fa.res.Errors = append(fa.res.Errors, fmt.Sprintf(
		"%s:%d: warning: unsupported object-oriented construct skipped", fa.path, line))
}

// evalAssign handles assignment including the alias form $a =& $b.
func (fa *fileAnalysis) evalAssign(x *phpast.Assign) *taint {
	if x.ByRef {
		// Alias analysis: both names share one cell afterwards.
		if lv, ok := x.LHS.(*phpast.Var); ok {
			if rv, ok := x.RHS.(*phpast.Var); ok {
				c := fa.lookup(rv.Name)
				fa.vars[lv.Name] = c
				return c.t
			}
		}
	}
	rhs := fa.eval(x.RHS)
	var t *taint
	switch x.Op {
	case "=":
		t = rhs
	case ".=":
		t = mergeTaint(fa.eval(x.LHS), rhs)
	default:
		fa.eval(x.LHS)
		t = nil // numeric compound operators
	}
	fa.assignTo(x.LHS, t)
	return t
}

// assignTo stores taint into an assignable expression.
func (fa *fileAnalysis) assignTo(lhs phpast.Expr, t *taint) {
	switch target := lhs.(type) {
	case *phpast.Var:
		c := fa.lookup(target.Name)
		c.t, c.defined = t, true
	case *phpast.IndexFetch:
		if base, ok := rootVar(target); ok {
			c := fa.lookup(base)
			c.t, c.defined = mergeTaint(c.t, t), true
		}
	case *phpast.ListExpr:
		for _, inner := range target.Targets {
			if inner != nil {
				fa.assignTo(inner, t)
			}
		}
	}
}

// rootVar finds the base variable of an index chain.
func rootVar(e phpast.Expr) (string, bool) {
	for {
		switch x := e.(type) {
		case *phpast.Var:
			return x.Name, true
		case *phpast.IndexFetch:
			e = x.Base
		default:
			return "", false
		}
	}
}

// evalCall handles function calls: sanitizers, sources, sinks and
// same-file user functions (analyzed per call, context-sensitively).
func (fa *fileAnalysis) evalCall(x *phpast.FuncCall) *taint {
	if x.NameExpr != nil {
		fa.eval(x.NameExpr)
		var t *taint
		for _, a := range x.Args {
			t = mergeTaint(t, fa.eval(a.Value))
		}
		return t
	}
	name := x.Name
	args := make([]*taint, len(x.Args))
	for i, a := range x.Args {
		args[i] = fa.eval(a.Value)
	}

	if classes, ok := fa.eng.cfg.FunctionSanitizer(name); ok {
		var t *taint
		for _, a := range args {
			t = mergeTaint(t, a)
		}
		return sanitizeTaint(t, classes)
	}
	if sinks := fa.eng.cfg.FunctionSinks(name); len(sinks) > 0 {
		for _, sink := range sinks {
			for i, a := range args {
				if !config.SinkSensitiveArg(sink, i) {
					continue
				}
				var argExpr phpast.Expr
				if i < len(x.Args) {
					argExpr = x.Args[i].Value
				}
				fa.checkSink(name, sink.Vuln, a, x.Pos(), argExpr)
			}
		}
		return nil
	}
	if src, ok := fa.eng.cfg.FunctionSource(name); ok {
		return sourceTaint(src, name+"()")
	}

	// Same-file user function: re-analyzed per call (context-sensitive).
	if fd, ok := fa.fns[name]; ok && fa.callDepth < maxCallDepth {
		return fa.callFunction(fd, args)
	}

	// Unknown function: pass-through (WordPress sanitizers land here →
	// Pixy false positives).
	var t *taint
	for _, a := range args {
		t = mergeTaint(t, a)
	}
	return t
}

// callFunction analyzes a function body with concrete argument taints in
// a fresh scope (Pixy's context-sensitive inter-procedural analysis).
func (fa *fileAnalysis) callFunction(fd *phpast.FuncDecl, args []*taint) *taint {
	savedVars := fa.vars
	savedInFunction := fa.inFunction
	fa.vars = make(map[string]*cell, len(fd.Params)+4)
	fa.inFunction = true
	fa.callDepth++

	for i, p := range fd.Params {
		c := fa.lookup(p.Name)
		c.defined = true
		if i < len(args) {
			c.t = args[i]
		}
	}
	fa.execStmts(fd.Body)
	ret := fa.vars[retName]

	fa.callDepth--
	fa.inFunction = savedInFunction
	fa.vars = savedVars
	if ret != nil {
		return ret.t
	}
	return nil
}

// checkSink reports a finding when taint of the sink's class reaches it.
func (fa *fileAnalysis) checkSink(sink string, class analyzer.VulnClass,
	t *taint, line int, expr phpast.Expr) {
	if !t.tainted(class) {
		return
	}
	varName := ""
	if expr != nil {
		if base, ok := rootVar(expr); ok {
			varName = base
		}
	}
	note := "flow from " + t.source
	fa.res.Findings = append(fa.res.Findings, analyzer.Finding{
		Tool:     fa.eng.Name(),
		File:     fa.path,
		Line:     line,
		Class:    class,
		Sink:     sink,
		Variable: varName,
		Vector:   t.vector,
		Trace: []analyzer.TraceStep{
			{File: fa.path, Line: line, Var: "$" + varName, Note: note},
		},
	})
	fa.gov.CheckFindings(len(fa.res.Findings))
}

// RegisterGlobalsFinding reports whether a finding came from the
// register_globals modeling (used by the evaluation's §V.A breakdown).
func RegisterGlobalsFinding(f analyzer.Finding) bool {
	for _, step := range f.Trace {
		if strings.Contains(step.Note, "register_globals") {
			return true
		}
	}
	return false
}
