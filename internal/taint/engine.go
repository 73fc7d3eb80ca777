// Package taint implements phpSAFE, the paper's primary contribution
// (DSN 2015, §III): a static source-code analyzer that detects XSS and
// SQL-Injection vulnerabilities in PHP plugins, including plugins written
// with PHP 5 object-oriented constructs.
//
// The engine follows the paper's four stages:
//
//  1. Configuration — a config.Compiled profile supplies sources,
//     sanitizers, revert functions and sinks (§III.A).
//  2. Model construction — each file is lexed and parsed (packages phplex
//     and phpparse stand in for PHP's token_get_all), and an inventory of
//     user-defined functions, classes and call sites is collected,
//     including the functions never called from plugin code (§III.B).
//  3. Analysis — tainted data is followed from sources through
//     assignments, expressions, includes, function and method calls to
//     sinks. Functions are analyzed once and their data flow is reused as
//     a summary at later call sites; uncalled functions are analyzed
//     first, then the "main function" of every file (§III.C).
//  4. Results processing — findings carry the vulnerable variable, the
//     sink, the input vector and the hop-by-hop data flow (§III.D).
//
// OOP support (§III.E) resolves $this and tracked object variables to
// classes, follows property data flow, and maps framework globals such as
// $wpdb through the configuration.
package taint

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/analyzer"
	"repro/internal/config"
	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/phpast"
	"repro/internal/pipeline"
)

// Options tune the engine. The zero value is not meaningful; start from
// DefaultOptions.
type Options struct {
	// OOP enables object-oriented analysis (§III.E). Disabling it
	// reproduces the RIPS/Pixy blind spot as an ablation.
	OOP bool
	// AnalyzeUncalled analyzes functions never called from plugin code
	// (§III.B-C); plugins export such functions as CMS hooks.
	AnalyzeUncalled bool
	// FunctionSummaries reuses each function's first-call data flow at
	// later call sites (§II "functions summaries"). Disabling re-analyzes
	// every call (whole-program style) as an ablation.
	FunctionSummaries bool
	// IncludeBudget bounds the include closure a single file may pull in
	// before the engine refuses the file. It models the paper's observed
	// failures: "phpSAFE was unable to parse [files that] had many
	// includes and required a lot of memory" (§V.A, §V.E).
	IncludeBudget int
	// MaxTraceDepth bounds recorded data-flow traces.
	MaxTraceDepth int
	// MaxCallDepth bounds nested call analysis (recursion guard backstop).
	MaxCallDepth int
}

// DefaultOptions returns the paper-faithful configuration.
func DefaultOptions() Options {
	return Options{
		OOP:               true,
		AnalyzeUncalled:   true,
		FunctionSummaries: true,
		IncludeBudget:     24,
		MaxTraceDepth:     12,
		MaxCallDepth:      32,
	}
}

// Engine is the phpSAFE analyzer. It is immutable and safe for concurrent
// use on distinct targets.
type Engine struct {
	cfg  *config.Compiled
	opts Options
	// rec receives metrics and spans; nil (the default) disables all
	// instrumentation at the cost of a nil check.
	rec *obs.Recorder
}

// Compile-time checks that Engine implements the shared interfaces.
var _ analyzer.Analyzer = (*Engine)(nil)

// New returns an engine over the given compiled configuration.
func New(cfg *config.Compiled, opts Options) *Engine {
	return &Engine{cfg: cfg, opts: opts}
}

// Name returns the tool name used in reports.
func (e *Engine) Name() string { return "phpSAFE" }

// WithRecorder returns a copy of the engine that records metrics and
// per-plugin stage spans (scan → model/taint → per-file parse/lex) into
// rec. The receiver is unchanged, so one immutable engine can serve
// both observed and unobserved scans.
func (e *Engine) WithRecorder(rec *obs.Recorder) *Engine {
	clone := *e
	clone.rec = rec
	return &clone
}

// scanStats accumulates per-scan instrumentation counts in plain ints;
// they are flushed to the recorder once per scan so the hot paths never
// touch an atomic, and they cost only an integer increment when
// instrumentation is disabled.
type scanStats struct {
	funcsAnalyzed    int64
	summaryReuses    int64
	propagationSteps int64
	sanitizerHits    int64
	sinkChecks       int64
}

// AnalyzeContext scans one plugin target under a context and resource
// budgets (the analyzer.Analyzer contract).
// Cancellation returns the partial result plus an error wrapping
// ctx.Err(); exhausted budgets return a partial result flagged
// Truncated with a nil error; per-file panics and time-slice overruns
// fail only the affected file.
func (e *Engine) AnalyzeContext(ctx context.Context, target *analyzer.Target, opts *analyzer.ScanOptions) (*analyzer.Result, error) {
	res, _, err := e.analyze(ctx, target, opts, nil, false)
	return res, err
}

// IsSuperglobal reports whether name (without "$") is a superglobal in
// the engine's configuration. The incremental planner needs this to
// build its shared-global dependency edges: the engine never routes
// data between files through a superglobal (reads mint fresh taint from
// the configuration and writes are discarded), so superglobals must not
// glue otherwise-independent files together.
func (e *Engine) IsSuperglobal(name string) bool {
	_, ok := e.cfg.Superglobal(name)
	return ok
}

// OptionsFingerprint returns a deterministic rendering of the engine's
// analysis options AND its configuration digest for cache keys: two
// engines with equal fingerprints produce identical results on identical
// input, so cached artifacts may flow between them. Folding the rule-set
// digest in keeps the scan cache and the incremental artifact store from
// mixing results across different rule-pack selections.
func (e *Engine) OptionsFingerprint() string {
	return fmt.Sprintf("%+v|cfg:%s", e.opts, e.cfg.Digest())
}

// flushStats publishes the scan's accumulated counts to the recorder.
func (a *analysis) flushStats() {
	rec := a.eng.rec
	if rec == nil {
		return
	}
	rec.Counter("taint_plugins_scanned_total").Inc()
	rec.Counter("taint_functions_analyzed_total").Add(a.stats.funcsAnalyzed)
	rec.Counter("taint_summary_reuses_total").Add(a.stats.summaryReuses)
	rec.Counter("taint_propagation_iterations_total").Add(a.stats.propagationSteps)
	rec.Counter("taint_sanitizer_hits_total").Add(a.stats.sanitizerHits)
	rec.Counter("taint_sink_checks_total").Add(a.stats.sinkChecks)
	rec.Counter("taint_findings_total").Add(int64(len(a.result.Findings)))
	rec.Counter("taint_files_failed_total").Add(int64(len(a.result.FilesFailed)))
}

// funcInfo is one user-defined function in the model.
type funcInfo struct {
	decl *phpast.FuncDecl
	file string
}

// methodInfo is one method in the model.
type methodInfo struct {
	decl  *phpast.MethodDecl
	class *classInfo
	file  string
}

// classInfo is one user-defined class in the model.
type classInfo struct {
	decl    *phpast.ClassDecl
	file    string
	methods map[string]*methodInfo
	// props holds the class-level abstract property state. The engine
	// tracks properties per class (not per instance), which is the
	// paper's granularity: "$this->prop" and "$obj->prop" flows resolve
	// through the object's class (§III.E).
	props map[string]*value
	// parent is resolved lazily from decl.Extends.
	parent *classInfo
}

// method resolves a method by lower-case name, walking the inheritance
// chain (§III.E: inheritance and override of methods).
func (ci *classInfo) method(name string) *methodInfo {
	for c := ci; c != nil; c = c.parent {
		if m, ok := c.methods[name]; ok {
			return m
		}
	}
	return nil
}

// analysis is the per-target mutable state.
type analysis struct {
	eng    *Engine
	cfg    *config.Compiled
	opts   Options
	target *analyzer.Target

	// files maps path → parsed AST for every target file.
	files map[string]*phpast.File
	// fileOrder is the deterministic processing order.
	fileOrder []string

	// funcs maps lower-case name → function info.
	funcs map[string]*funcInfo
	// classes maps lower-case name → class info.
	classes map[string]*classInfo

	// calledFuncs / calledMethods record names invoked anywhere in the
	// plugin, for the uncalled-function pass (§III.B).
	calledFuncs   map[string]bool
	calledMethods map[string]bool

	// globals is the global variable scope shared by all files.
	globals map[string]*value

	// summaries caches per-function data flow (§III.C).
	summaries map[string]*summary
	// inProgress guards against recursive summary analysis.
	inProgress map[string]bool

	// includeStack tracks files being textually included.
	includeStack map[string]bool
	callDepth    int
	// curCollector is the summary currently receiving parameter flows.
	curCollector *summary
	// argStack holds the evaluated arguments of the calls being
	// evaluated, innermost last (see evalArgs).
	argStack []*value

	// curFile is the path of the file whose code is being walked.
	curFile string
	// includes resolves include literals against the scan's files.
	includes IncludeResolver

	// skip maps paths whose analysis is replayed from a previous scan's
	// artifacts instead of being re-run (incremental warm scans): their
	// declarations are still inventoried and their include-budget checks
	// still run, but their summaries come from the seed and their
	// top-level flows are not executed. Nil for ordinary scans.
	skip map[string]*FileResult

	// stats collects instrumentation counts flushed at the end of the
	// scan (see scanStats).
	stats scanStats
	// fileSteps is the interpreter steps spent per file: its main flow
	// and the uncalled-function pass over its declarations. Artifacts
	// carry it so a replay knows what a cold scan would spend.
	fileSteps map[string]int64

	// gov enforces the scan's context and resource budgets; checkpoints
	// in the interpreter and the model stage consult it. Never nil — an
	// ungoverned call path gets a background-context governor with
	// default budgets.
	gov *govern.Governor
	// fileWorkers sizes the parallel parse front end (see
	// ScanOptions.FileWorkers); 1 means strictly serial.
	fileWorkers int
	// completed marks files whose analysis finished (replayed skips
	// included): only these count into FilesAnalyzed/LinesAnalyzed and
	// only these may export artifacts.
	completed map[string]bool

	result *analyzer.Result
}

// newAnalysis builds the empty per-target state.
func newAnalysis(e *Engine, target *analyzer.Target) *analysis {
	return &analysis{
		eng:           e,
		cfg:           e.cfg,
		opts:          e.opts,
		target:        target,
		files:         make(map[string]*phpast.File, len(target.Files)),
		funcs:         make(map[string]*funcInfo),
		classes:       make(map[string]*classInfo),
		calledFuncs:   make(map[string]bool),
		calledMethods: make(map[string]bool),
		globals:       make(map[string]*value),
		summaries:     make(map[string]*summary),
		inProgress:    make(map[string]bool),
		includeStack:  make(map[string]bool),
		completed:     make(map[string]bool),
		fileSteps:     make(map[string]int64),
		result: &analyzer.Result{
			Tool:   e.Name(),
			Target: target.Name,
		},
	}
}

// buildModel is the model-construction stage (§III.B): parse every file,
// inventory declarations and call sites. The model span (nil when
// unobserved) parents the per-file parse spans. Parsing fans across the
// scan's worker pool, and the parser records each file's declarations
// and call sites as it builds the tree (phpast.Facts), so linking them
// into one model reads those facts serially over the sorted file order
// and walks no AST. This is the only place a scan parses: an
// incremental seed contributes cached ASTs, their facts with them, and
// plans its replayed files on the ASTs parsed here.
func (a *analysis) buildModel(modelSpan *obs.Span, seed *Seed) {
	var parsed map[string]*phpast.File
	if seed != nil {
		parsed = seed.Parsed
	}
	a.files = pipeline.ParseFiles(a.target.Files, parsed, a.eng.rec, modelSpan, a.gov, a.fileWorkers)
	if seed != nil {
		a.skip = seed.Plan(a.files, a.gov.Clean())
	}
	for _, sf := range a.target.Files {
		a.fileOrder = append(a.fileOrder, sf.Path)
	}
	sort.Strings(a.fileOrder)
	a.includes = NewIncludeResolver(a.fileOrder)

	// Declarations: the first of a name wins, in file order.
	for _, path := range a.fileOrder {
		facts := a.files[path].Facts()
		for _, d := range facts.Funcs {
			if _, dup := a.funcs[d.Name]; !dup {
				a.funcs[d.Name] = &funcInfo{decl: d, file: path}
			}
		}
		for _, d := range facts.Classes {
			a.registerClass(d, path)
		}
	}
	// Resolve inheritance.
	for _, ci := range a.classes {
		if ci.decl.Extends != "" {
			ci.parent = a.classes[ci.decl.Extends]
		}
	}

	// Call sites (for the uncalled-function inventory).
	for _, path := range a.fileOrder {
		facts := a.files[path].Facts()
		for _, name := range facts.CalledFuncs {
			a.calledFuncs[name] = true
		}
		for _, name := range facts.CalledMethods {
			a.calledMethods[name] = true
		}
	}
}

// registerClass adds a class declaration to the model.
func (a *analysis) registerClass(d *phpast.ClassDecl, path string) {
	if _, dup := a.classes[d.Name]; dup {
		return
	}
	ci := &classInfo{
		decl:    d,
		file:    path,
		methods: make(map[string]*methodInfo, len(d.Methods)),
		props:   make(map[string]*value, len(d.Props)),
	}
	for i := range d.Methods {
		m := &d.Methods[i]
		ci.methods[m.Name] = &methodInfo{decl: m, class: ci, file: path}
	}
	for _, p := range d.Props {
		ci.props[p.Name] = untainted()
	}
	a.classes[d.Name] = ci
}

// run is the analysis stage (§III.C): first the functions not called from
// plugin code, then the "main function" of every file. Every per-file
// unit runs under govern.Protect, so a crash in one file degrades to a
// RobustnessFailure instead of sinking the scan; a halted governor
// stops the stage between files.
func (a *analysis) run() {
	failed := a.failOversizedFiles()
	crashed := make(map[string]bool)

	if a.opts.AnalyzeUncalled {
		a.analyzeUncalled(failed, crashed)
	}

	for _, path := range a.fileOrder {
		if failed[path] || crashed[path] {
			continue
		}
		if a.skipped(path) {
			a.completed[path] = true
			continue
		}
		a.gov.CheckNow()
		if a.gov.ScanHalted() {
			break
		}
		path := path
		before := a.gov.Steps()
		ok := govern.Protect(a.gov, path, a.result, func() {
			a.gov.BeginFile(path)
			a.analyzeMainFlow(path)
		})
		a.fileSteps[path] += a.gov.Steps() - before
		if a.gov.EndFile() {
			// The file overran its time slice: fail it, keep the scan.
			a.result.FilesFailed = append(a.result.FilesFailed, path)
			a.result.Errors = append(a.result.Errors, fmt.Sprintf(
				"%s: file time slice exhausted; file not fully analyzed", path))
			continue
		}
		if ok && !a.gov.ScanHalted() {
			a.completed[path] = true
		}
	}

	// Accounting for §V.E (responsiveness and robustness): only files
	// whose analysis ran to completion count.
	for _, path := range a.fileOrder {
		if a.completed[path] {
			a.result.FilesAnalyzed++
			a.result.LinesAnalyzed += a.files[path].Lines
		}
	}
}

// failOversizedFiles applies the include-budget robustness model: a file
// whose transitive include closure exceeds the budget is reported as not
// analyzed, reproducing the paper's phpSAFE failures (1 file in the 2012
// corpus, 3 in 2014). Each file's includes are resolved at most once
// per scan.
func (a *analysis) failOversizedFiles() map[string]bool {
	failed := make(map[string]bool)
	edges := make(map[string][]string, len(a.files))
	seen := make(map[string]bool)
	for _, path := range a.fileOrder {
		clear(seen)
		size := a.includeClosureSize(path, edges, seen)
		if size > a.opts.IncludeBudget {
			failed[path] = true
			a.result.FilesFailed = append(a.result.FilesFailed, path)
			a.result.Errors = append(a.result.Errors, fmt.Sprintf(
				"%s: include closure of %d files exceeds budget %d; file not analyzed",
				path, size, a.opts.IncludeBudget))
		}
	}
	return failed
}

// includeClosureSize counts the transitive include closure of path: each
// resolved include adds one, plus the closure of its target when this
// walk has not seen the target yet. edges caches each file's resolved
// include targets in AST order, duplicates included.
func (a *analysis) includeClosureSize(path string, edges map[string][]string, seen map[string]bool) int {
	if seen[path] {
		return 0
	}
	seen[path] = true
	targets, ok := edges[path]
	if !ok {
		f, ok := a.files[path]
		if !ok {
			return 0
		}
		for _, lit := range f.Facts().Includes {
			if target, resolved := a.includes.Resolve(path, lit); resolved {
				targets = append(targets, target)
			}
		}
		edges[path] = targets
	}
	count := 0
	for _, target := range targets {
		count += 1 + a.includeClosureSize(target, edges, seen)
	}
	return count
}

// analyzeUncalled analyzes every function and method that is never called
// from plugin code (§III.B: "these functions should be parsed anyway, as
// they may be directly called from the main application").
func (a *analysis) analyzeUncalled(failed, crashed map[string]bool) {
	names := make([]string, 0, len(a.funcs))
	for name := range a.funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fi := a.funcs[name]
		if a.calledFuncs[name] || failed[fi.file] || crashed[fi.file] {
			continue
		}
		if a.gov.ScanHalted() {
			return
		}
		name := name
		before := a.gov.Steps()
		if !govern.Protect(a.gov, fi.file, a.result, func() {
			a.summarizeFunction("func:"+name, fi.file, nil, fi.decl.Params, fi.decl.Body, nil)
		}) {
			crashed[fi.file] = true
		}
		a.fileSteps[fi.file] += a.gov.Steps() - before
	}

	if !a.opts.OOP {
		return
	}
	classNames := make([]string, 0, len(a.classes))
	for name := range a.classes {
		classNames = append(classNames, name)
	}
	sort.Strings(classNames)
	for _, cn := range classNames {
		ci := a.classes[cn]
		if failed[ci.file] || crashed[ci.file] {
			continue
		}
		methodNames := make([]string, 0, len(ci.methods))
		for mn := range ci.methods {
			methodNames = append(methodNames, mn)
		}
		sort.Strings(methodNames)
		for _, mn := range methodNames {
			if a.calledMethods[mn] || crashed[ci.file] {
				continue
			}
			if a.gov.ScanHalted() {
				return
			}
			ci, cn, mn := ci, cn, mn
			mi := ci.methods[mn]
			before := a.gov.Steps()
			if !govern.Protect(a.gov, mi.file, a.result, func() {
				a.summarizeFunction("method:"+cn+"::"+mn, mi.file, ci, mi.decl.Params, mi.decl.Body, nil)
			}) {
				crashed[mi.file] = true
			}
			a.fileSteps[mi.file] += a.gov.Steps() - before
		}
	}
}

// analyzeMainFlow analyzes a file's top-level statements (§III.C: "the
// inter-procedural analysis starting from the main function").
func (a *analysis) analyzeMainFlow(path string) {
	f := a.files[path]
	sc := &scope{
		vars:        a.globals,
		isGlobal:    true,
		globalNames: nil,
	}
	prevFile := a.curFile
	a.curFile = path
	a.includeStack = map[string]bool{path: true}
	a.execStmts(f.Stmts, sc)
	a.curFile = prevFile
}
