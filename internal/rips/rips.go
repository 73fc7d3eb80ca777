// Package rips reimplements the RIPS static analyzer (Dahse & Holz, NDSS
// 2014) at the fidelity the phpSAFE paper's comparison depends on
// (DSN 2015, §II, §IV-V).
//
// RIPS differs from phpSAFE in algorithm and in capability envelope, and
// both differences matter for reproducing the paper's tables:
//
//   - Backward-directed taint analysis: RIPS starts at sensitive sinks and
//     slices backwards through assignments and calls to decide whether
//     attacker data can reach them.
//   - Comprehensive simulation of PHP built-in features: RIPS understands
//     the standard sanitizers, and — unlike phpSAFE — it also refines taint
//     through validation guards (is_numeric) and restrictive preg_replace
//     patterns, giving it fewer false positives on such code.
//   - Analyzes all functions, including ones never called from plugin code
//     (§V.A: "both phpSAFE and RIPS are able to detect vulnerabilities in
//     functions that are not called").
//   - NO object-oriented analysis: "the tool does not parse PHP objects,
//     consequently it misses encapsulated vulnerabilities" (§II). Method
//     calls and property fetches are opaque: never sources, sinks or
//     sanitizers.
//   - NO CMS framework knowledge: WordPress sources (get_option,
//     $wpdb->get_results) are invisible (false negatives) and WordPress
//     sanitizers (esc_html) are unknown pass-throughs (false positives).
//   - Analyzes each file independently; it does not expand include
//     closures, so files that exhaust phpSAFE's include budget still get
//     analyzed (the paper's explanation for RIPS's 2014 advantage, §V.A).
package rips

import (
	"context"
	"fmt"

	"repro/internal/analyzer"
	"repro/internal/config"
	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/phpast"
	"repro/internal/pipeline"
)

// Engine is the RIPS-like analyzer. It is immutable and safe for
// concurrent use on distinct targets.
type Engine struct {
	cfg *config.Compiled
	// rec receives metrics and spans; nil disables instrumentation.
	rec *obs.Recorder
}

var _ analyzer.Analyzer = (*Engine)(nil)

// New returns a RIPS engine. RIPS only knows generic PHP, so the natural
// configuration is the builtin generic pack, rulepack.MustCompile("generic").
func New(cfg *config.Compiled) *Engine { return &Engine{cfg: cfg} }

// Name returns the tool name used in reports.
func (e *Engine) Name() string { return "RIPS" }

// OptionsFingerprint identifies the configuration the engine scans with,
// so cached results are never reused across different rule sets.
func (e *Engine) OptionsFingerprint() string { return "rips|cfg:" + e.cfg.Digest() }

// WithRecorder returns a copy of the engine that records per-plugin
// model/slice stage spans and parse metrics into rec.
func (e *Engine) WithRecorder(rec *obs.Recorder) *Engine {
	clone := *e
	clone.rec = rec
	return &clone
}

// AnalyzeContext scans one plugin target under a context and resource
// budgets (the analyzer.Analyzer contract). Per-file analysis is
// crash-isolated; a halted governor stops the scan between files and
// inside the backward-tracing recursion.
func (e *Engine) AnalyzeContext(ctx context.Context, target *analyzer.Target, opts *analyzer.ScanOptions) (*analyzer.Result, error) {
	if target == nil {
		return nil, fmt.Errorf("rips: nil target")
	}
	gov := govern.New(ctx, opts, e.rec)
	workers := opts.EffectiveFileWorkers()
	res := &analyzer.Result{Tool: e.Name(), Target: target.Name}

	scan := e.rec.StartNamedSpan("scan:", target.Name, nil)

	// RIPS builds a program model per file but resolves user functions
	// across the whole plugin (inter-procedural analysis).
	msp := scan.StartChild("model")
	model := buildModel(target, e.rec, msp, gov, workers)
	msp.EndAndObserve("stage_model_seconds")

	// The model is read-only from here on, so per-file backward slicing
	// fans across the worker pool: each file accumulates into its own
	// Result shard under its worker's forked governor, and the shards
	// are merged in sorted path order — byte-identical to a serial run.
	tsp := scan.StartChild("taint")
	shards := make([]*analyzer.Result, len(model.fileOrder))
	govern.ForkJoin(gov, workers, len(model.fileOrder), func(child *govern.Governor, _, idx int) {
		child.CheckNow()
		if child.ScanHalted() {
			return
		}
		file := model.fileOrder[idx]
		shard := &analyzer.Result{}
		shards[idx] = shard
		fa := &fileAnalysis{eng: e, model: model, res: shard, gov: child}
		ok := govern.Protect(child, file, shard, func() {
			child.BeginFile(file)
			fa.analyzeFile(file)
		})
		if child.EndFile() {
			shard.FilesFailed = append(shard.FilesFailed, file)
			shard.Errors = append(shard.Errors, fmt.Sprintf(
				"%s: file time slice exhausted; file not fully analyzed", file))
			return
		}
		if ok && !child.ScanHalted() {
			shard.FilesAnalyzed++
			shard.LinesAnalyzed += model.files[file].Lines
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

// model is the whole-target inventory RIPS uses for inter-procedural
// backward slicing.
type model struct {
	files     map[string]*phpast.File
	fileOrder []string
	// funcs maps lower-case function name → its flattened body events.
	funcs map[string]*funcModel
	// callSites maps function name → the call events referencing it.
	callSites map[string][]callSite
	// mains maps file path → the flattened top-level pseudo-function.
	mains map[string]*funcModel
}

// funcModel is one function's flattened event list.
type funcModel struct {
	name   string
	file   string
	params []phpast.Param
	events []event
	// returns indexes the events that are return statements.
	returns []int
}

// callSite is one call of a user function, with enough context to trace
// arguments backwards in the caller.
type callSite struct {
	fn    *funcModel // caller ("" top-level pseudo-function)
	index int        // event index of the call
	args  []phpast.Expr
}

// eventKind distinguishes flattened program events.
type eventKind int

const (
	evAssign eventKind = iota + 1
	evSink
	evGuard
	evCall
	evForeach
)

// event is one step of a function's linearized body. RIPS's control-flow
// graph is approximated by flattening blocks in source order, which is
// sufficient for the backward def-use slicing it performs.
type event struct {
	kind eventKind
	line int
	file string

	// evAssign: lhs var name (coarse: base variable) and rhs expression.
	lhsVar string
	rhs    phpast.Expr
	concat bool // .= compound assignment

	// evSink: sink name, vulnerability class, checked expression.
	sink     string
	vuln     analyzer.VulnClass
	sinkExpr phpast.Expr

	// evGuard: variable validated by is_numeric/intval-style checks.
	guardVar string

	// evCall: callee name and argument expressions.
	callee string
	args   []phpast.Expr

	// evForeach: collection expression flowing into the loop variable.
	collExpr phpast.Expr
}

// buildModel parses all files and flattens every function and every
// top-level flow. The recorder and parent span (both possibly nil)
// observe the per-file parses; the governor (possibly nil) bounds them.
func buildModel(target *analyzer.Target, rec *obs.Recorder, parent *obs.Span, gov *govern.Governor, workers int) *model {
	m := &model{
		funcs:     make(map[string]*funcModel),
		callSites: make(map[string][]callSite),
		mains:     make(map[string]*funcModel, len(target.Files)),
	}
	m.files = pipeline.ParseFiles(target.Files, nil, rec, parent, gov, workers)
	for _, sf := range target.Files {
		m.fileOrder = append(m.fileOrder, sf.Path)
	}
	// Deterministic order.
	for i := 1; i < len(m.fileOrder); i++ {
		for j := i; j > 0 && m.fileOrder[j] < m.fileOrder[j-1]; j-- {
			m.fileOrder[j], m.fileOrder[j-1] = m.fileOrder[j-1], m.fileOrder[j]
		}
	}

	// Collect function declarations target-wide. RIPS skips methods —
	// it does not parse objects.
	for _, path := range m.fileOrder {
		file := m.files[path]
		phpast.InspectStmts(file.Stmts, func(n phpast.Node) bool {
			if fd, ok := n.(*phpast.FuncDecl); ok && fd.Name != "" {
				if _, dup := m.funcs[fd.Name]; !dup {
					fm := &funcModel{name: fd.Name, file: path, params: fd.Params}
					flattenStmts(fd.Body, path, fm)
					m.funcs[fd.Name] = fm
				}
				return false
			}
			if _, ok := n.(*phpast.ClassDecl); ok {
				return false // OOP is invisible to RIPS
			}
			return true
		})
	}

	// Flatten every file's top-level flow, then index call sites for
	// inter-procedural backward tracing (top-level calls included, so a
	// sink inside a function defined in another file still resolves).
	for _, path := range m.fileOrder {
		fm := &funcModel{name: "{main:" + path + "}", file: path}
		flattenStmts(m.files[path].Stmts, path, fm)
		m.mains[path] = fm
	}
	for _, fm := range m.funcs {
		m.indexCalls(fm)
	}
	for _, path := range m.fileOrder {
		m.indexCalls(m.mains[path])
	}
	return m
}

// indexCalls registers the call events of fm into the global call-site
// index.
func (m *model) indexCalls(fm *funcModel) {
	for i, ev := range fm.events {
		if ev.kind == evCall && ev.callee != "" {
			m.callSites[ev.callee] = append(m.callSites[ev.callee], callSite{
				fn: fm, index: i, args: ev.args,
			})
		}
	}
}

// topLevel returns a file's flattened main flow.
func (m *model) topLevel(path string) *funcModel {
	return m.mains[path]
}

// flattenStmts appends the events of a statement list in source order.
func flattenStmts(stmts []phpast.Stmt, file string, fm *funcModel) {
	for _, s := range stmts {
		flattenStmt(s, file, fm)
	}
}

// flattenStmt appends the events of one statement.
func flattenStmt(s phpast.Stmt, file string, fm *funcModel) {
	switch st := s.(type) {
	case *phpast.ExprStmt:
		flattenExpr(st.X, file, fm)
	case *phpast.Echo:
		for _, arg := range st.Args {
			flattenExpr(arg, file, fm)
			fm.events = append(fm.events, event{
				kind: evSink, line: arg.Pos(), file: file,
				sink: "echo", vuln: analyzer.XSS, sinkExpr: arg,
			})
		}
	case *phpast.Block:
		flattenStmts(st.List, file, fm)
	case *phpast.If:
		flattenGuards(st.Cond, file, fm)
		flattenExpr(st.Cond, file, fm)
		flattenStmts(st.Then, file, fm)
		for _, ei := range st.Elseifs {
			flattenGuards(ei.Cond, file, fm)
			flattenExpr(ei.Cond, file, fm)
			flattenStmts(ei.Body, file, fm)
		}
		flattenStmts(st.Else, file, fm)
	case *phpast.While:
		flattenGuards(st.Cond, file, fm)
		flattenExpr(st.Cond, file, fm)
		flattenStmts(st.Body, file, fm)
	case *phpast.DoWhile:
		flattenStmts(st.Body, file, fm)
		flattenExpr(st.Cond, file, fm)
	case *phpast.For:
		for _, e := range st.Init {
			flattenExpr(e, file, fm)
		}
		for _, e := range st.Cond {
			flattenExpr(e, file, fm)
		}
		flattenStmts(st.Body, file, fm)
		for _, e := range st.Post {
			flattenExpr(e, file, fm)
		}
	case *phpast.Foreach:
		flattenExpr(st.Expr, file, fm)
		if v, ok := st.Value.(*phpast.Var); ok {
			fm.events = append(fm.events, event{
				kind: evForeach, line: st.Pos(), file: file,
				lhsVar: v.Name, collExpr: st.Expr,
			})
		}
		flattenStmts(st.Body, file, fm)
	case *phpast.Switch:
		flattenExpr(st.Cond, file, fm)
		for _, c := range st.Cases {
			if c.Cond != nil {
				flattenExpr(c.Cond, file, fm)
			}
			flattenStmts(c.Body, file, fm)
		}
	case *phpast.Return:
		if st.X != nil {
			flattenExpr(st.X, file, fm)
			fm.events = append(fm.events, event{
				kind: evAssign, line: st.Pos(), file: file,
				lhsVar: retVar, rhs: st.X,
			})
			fm.returns = append(fm.returns, len(fm.events)-1)
		}
	case *phpast.Unset:
		for _, v := range st.Vars {
			if vv, ok := v.(*phpast.Var); ok {
				fm.events = append(fm.events, event{
					kind: evAssign, line: st.Pos(), file: file,
					lhsVar: vv.Name, rhs: nil,
				})
			}
		}
	case *phpast.Throw:
		flattenExpr(st.X, file, fm)
	case *phpast.Try:
		flattenStmts(st.Body, file, fm)
		for _, c := range st.Catches {
			flattenStmts(c.Body, file, fm)
		}
		flattenStmts(st.Finally, file, fm)
	case *phpast.Global, *phpast.StaticVars, *phpast.InlineHTML,
		*phpast.Break, *phpast.Continue, *phpast.BadStmt,
		*phpast.FuncDecl, *phpast.ClassDecl:
		// Declarations handled in buildModel; the rest carry no events.
	}
}

// retVar is the pseudo-variable holding a function's return value.
const retVar = "\x00return"

// flattenGuards extracts validation guards from a condition: RIPS
// simulates built-in validation functions (is_numeric, ctype_digit,
// is_int) and treats guarded variables as safe below the check.
func flattenGuards(cond phpast.Expr, file string, fm *funcModel) {
	phpast.Inspect(cond, func(n phpast.Node) bool {
		fc, ok := n.(*phpast.FuncCall)
		if !ok {
			return true
		}
		switch fc.Name {
		case "is_numeric", "is_int", "is_float", "ctype_digit", "ctype_alnum":
			if len(fc.Args) == 1 {
				if v, ok := fc.Args[0].Value.(*phpast.Var); ok {
					fm.events = append(fm.events, event{
						kind: evGuard, line: fc.Pos(), file: file, guardVar: v.Name,
					})
				}
			}
		}
		return true
	})
}

// flattenExpr appends assignment, call and sink events found inside an
// expression, in evaluation order.
func flattenExpr(e phpast.Expr, file string, fm *funcModel) {
	switch x := e.(type) {
	case nil:
		return
	case *phpast.Assign:
		flattenExpr(x.RHS, file, fm)
		if base, ok := baseVar(x.LHS); ok {
			fm.events = append(fm.events, event{
				kind: evAssign, line: x.Pos(), file: file,
				lhsVar: base, rhs: x.RHS,
				concat: x.Op == ".=",
			})
		}
	case *phpast.FuncCall:
		for _, a := range x.Args {
			flattenExpr(a.Value, file, fm)
		}
		if x.Name == "" {
			return
		}
		fm.events = append(fm.events, event{
			kind: evCall, line: x.Pos(), file: file,
			callee: x.Name, args: argExprs(x.Args),
		})
	case *phpast.PrintExpr:
		flattenExpr(x.X, file, fm)
		fm.events = append(fm.events, event{
			kind: evSink, line: x.Pos(), file: file,
			sink: "print", vuln: analyzer.XSS, sinkExpr: x.X,
		})
	case *phpast.ExitExpr:
		if x.X != nil {
			flattenExpr(x.X, file, fm)
			fm.events = append(fm.events, event{
				kind: evSink, line: x.Pos(), file: file,
				sink: "exit", vuln: analyzer.XSS, sinkExpr: x.X,
			})
		}
	case *phpast.Binary:
		flattenExpr(x.L, file, fm)
		flattenExpr(x.R, file, fm)
	case *phpast.Unary:
		flattenExpr(x.X, file, fm)
	case *phpast.Ternary:
		flattenExpr(x.Cond, file, fm)
		flattenExpr(x.Then, file, fm)
		flattenExpr(x.Else, file, fm)
	case *phpast.Cast:
		flattenExpr(x.X, file, fm)
	case *phpast.InterpString:
		for _, p := range x.Parts {
			flattenExpr(p, file, fm)
		}
	case *phpast.ArrayLit:
		for _, it := range x.Items {
			flattenExpr(it.Key, file, fm)
			flattenExpr(it.Value, file, fm)
		}
	case *phpast.IndexFetch:
		flattenExpr(x.Base, file, fm)
		flattenExpr(x.Index, file, fm)
	case *phpast.MethodCall:
		// Objects are invisible, but argument expressions still execute.
		for _, a := range x.Args {
			flattenExpr(a.Value, file, fm)
		}
	case *phpast.StaticCall:
		for _, a := range x.Args {
			flattenExpr(a.Value, file, fm)
		}
	case *phpast.New:
		for _, a := range x.Args {
			flattenExpr(a.Value, file, fm)
		}
	case *phpast.IncludeExpr:
		flattenExpr(x.Path, file, fm)
	case *phpast.Closure:
		flattenStmts(x.Body, file, fm)
	}
}

// argExprs extracts argument value expressions.
func argExprs(args []phpast.Arg) []phpast.Expr {
	out := make([]phpast.Expr, len(args))
	for i, a := range args {
		out[i] = a.Value
	}
	return out
}

// baseVar resolves the base variable of an assignable expression. Object
// property targets return false: RIPS does not track them.
func baseVar(e phpast.Expr) (string, bool) {
	switch x := e.(type) {
	case *phpast.Var:
		return x.Name, true
	case *phpast.IndexFetch:
		return baseVar(x.Base)
	default:
		return "", false
	}
}

// sinksOf returns the sink declarations a call event triggers: config
// sinks (mysql_query and friends) keyed by callee name.
func (e *Engine) sinksOf(ev event) []config.Sink {
	if ev.kind != evCall {
		return nil
	}
	return e.cfg.FunctionSinks(ev.callee)
}
