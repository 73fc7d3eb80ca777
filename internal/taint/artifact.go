package taint

// Incremental-analysis support: per-file replayable results and portable
// (serializable) function summaries. internal/incremental plans which
// files of a snapshot may be reused from a previous scan and calls
// AnalyzeIncremental with a Seed; everything here keeps that warm path
// byte-identical to a cold AnalyzeContext.
//
// The soundness contract is the planner's: a file may only be skipped
// when every file it could interact with — via includes, cross-file
// calls, class references or shared globals — is skipped with it (the
// dependency component, see internal/incremental). Under that contract
// the engine still parses and inventories every file (so the
// called-function tables and declaration maps match a cold scan
// exactly), still runs the include-budget checks for every file (they
// are deterministic in the ASTs), and only replaces the skipped files'
// summarization and top-level flows with their recorded outcomes.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/analyzer"
	"repro/internal/govern"
	"repro/internal/phpast"
)

// FileResult is the replayable per-file outcome of one scan: the
// findings attributed to the file, the summaries of the functions and
// methods it declares, and the interpreter steps its analysis took
// (its main flow plus the uncalled-function pass over its
// declarations). It is the payload of one artifact in the incremental
// store and round-trips through JSON unchanged.
type FileResult struct {
	Findings  []analyzer.Finding          `json:"findings,omitempty"`
	Summaries map[string]*PortableSummary `json:"summaries,omitempty"`
	Steps     int64                       `json:"steps,omitempty"`
}

// Seed carries an incremental scan's reusable state into the engine.
// Parsed supplies ready ASTs by path (AST-cache hits); the engine's
// parse stage parses every other file. Plan is called once, right after
// that stage and before the declaration inventory, with every file's
// AST and whether the parse ran clean (no budget exhausted, no halt);
// it returns the files, among those it was handed, whose results are
// replayed instead of analyzed. When the replayed files' recorded steps
// could have halted a cold scan, the engine scans again and calls Plan
// once more with clean false, which must replay nothing.
type Seed struct {
	Parsed map[string]*phpast.File
	Plan   func(files map[string]*phpast.File, clean bool) map[string]*FileResult
}

// replayNothing returns a seed that keeps s's AST hits and replays no
// file.
func (s *Seed) replayNothing() *Seed {
	return &Seed{Parsed: s.Parsed, Plan: func(files map[string]*phpast.File, _ bool) map[string]*FileResult {
		return s.Plan(files, false)
	}}
}

// PortableTaint is one vulnerability-class taint with its provenance.
type PortableTaint struct {
	Class  analyzer.VulnClass   `json:"class"`
	Vector analyzer.Vector      `json:"vector"`
	Trace  []analyzer.TraceStep `json:"trace,omitempty"`
}

// PortableParam is a symbolic dependency on one function parameter.
type PortableParam struct {
	Param   int                  `json:"param"`
	Classes []analyzer.VulnClass `json:"classes"`
}

// PortableValue is the serializable form of an abstract value.
type PortableValue struct {
	Taints  []PortableTaint `json:"taints,omitempty"`
	Latent  []PortableTaint `json:"latent,omitempty"`
	Params  []PortableParam `json:"params,omitempty"`
	Class   string          `json:"class,omitempty"`
	Numeric bool            `json:"numeric,omitempty"`
	Filters []string        `json:"filters,omitempty"`
}

// PortableFlow is a parameter→sink flow recorded inside a function body.
type PortableFlow struct {
	Param    int                `json:"param"`
	Class    analyzer.VulnClass `json:"class"`
	Sink     string             `json:"sink"`
	File     string             `json:"file"`
	Line     int                `json:"line"`
	Variable string             `json:"variable,omitempty"`
	CWE      int                `json:"cwe,omitempty"`
	Severity string             `json:"severity,omitempty"`
}

// PortableSummary is the serializable form of one function summary.
type PortableSummary struct {
	Ret   *PortableValue `json:"ret,omitempty"`
	Flows []PortableFlow `json:"flows,omitempty"`
}

// AnalyzeIncremental scans target like AnalyzeContext, replaying the
// seeded files instead of re-analyzing them, and additionally returns
// the per-file artifacts of every file it did analyze (for write-back
// into the store). A nil seed makes it a cold scan that still exports
// artifacts. A scan touched by any budget — truncation, cancellation,
// a recovered panic — exports no artifacts: partial per-file results
// must never be written back as reusable state.
func (e *Engine) AnalyzeIncremental(ctx context.Context, target *analyzer.Target, opts *analyzer.ScanOptions, seed *Seed) (*analyzer.Result, map[string]*FileResult, error) {
	return e.analyze(ctx, target, opts, seed, true)
}

// analyze is the shared scan pipeline behind AnalyzeContext and
// AnalyzeIncremental.
func (e *Engine) analyze(ctx context.Context, target *analyzer.Target, opts *analyzer.ScanOptions, seed *Seed, export bool) (*analyzer.Result, map[string]*FileResult, error) {
	if target == nil {
		return nil, nil, fmt.Errorf("taint: nil target")
	}
	a := newAnalysis(e, target)
	a.gov = govern.New(ctx, opts, e.rec)
	a.fileWorkers = opts.EffectiveFileWorkers()
	scan := e.rec.StartNamedSpan("scan:", target.Name, nil)
	model := scan.StartChild("model")
	a.buildModel(model, seed)
	model.EndAndObserve("stage_model_seconds")
	a.importSummaries()
	tsp := scan.StartChild("taint")
	a.run()
	if len(a.skip) > 0 && a.gov.Steps()+a.replayedSteps() >= opts.EffectiveMaxSteps() {
		// A cold scan also spends the replayed files' steps, so it could
		// halt on the step budget where this scan did not, or on another
		// step. Only a scan that replays nothing matches it then.
		tsp.End()
		scan.End()
		return e.analyze(ctx, target, opts, seed.replayNothing(), export)
	}
	a.replaySkipped()
	tsp.EndAndObserve("stage_taint_seconds")
	a.result.Dedup()
	err := a.gov.Finish(a.result)
	scan.End()
	a.flushStats()
	var arts map[string]*FileResult
	if export && err == nil && !a.result.Truncated && len(a.result.RobustnessFailures) == 0 {
		arts = a.exportArtifacts()
	}
	return a.result, arts, err
}

// skipped reports whether path's analysis is replayed from a seed.
func (a *analysis) skipped(path string) bool {
	_, ok := a.skip[path]
	return ok
}

// importSummaries seeds the summary table from the skipped files'
// artifacts. Seeded summaries are complete (done), so summarizeFunction
// short-circuits on them: the uncalled-function pass over a skipped
// file costs a map lookup instead of a body walk.
func (a *analysis) importSummaries() {
	for _, path := range sortedKeys(a.skip) {
		fr := a.skip[path]
		if fr == nil {
			continue
		}
		for _, key := range sortedKeys(fr.Summaries) {
			if _, exists := a.summaries[key]; exists {
				continue
			}
			a.summaries[key] = fr.Summaries[key].summary(path)
		}
	}
}

// replayedSteps sums the interpreter steps the skipped files' analysis
// took when their artifacts were made: what a cold scan spends on them.
func (a *analysis) replayedSteps() int64 {
	var n int64
	for _, fr := range a.skip {
		if fr != nil {
			n += fr.Steps
		}
	}
	return n
}

// replaySkipped appends the recorded findings of every skipped file.
// Ordering relative to the freshly generated findings is irrelevant:
// findings sharing a dedup key share a file, hence a dependency
// component, hence are either all replayed or all fresh — and Dedup
// sorts the final list either way.
func (a *analysis) replaySkipped() {
	for _, path := range sortedKeys(a.skip) {
		fr := a.skip[path]
		if fr == nil {
			continue
		}
		a.result.Findings = append(a.result.Findings, fr.Findings...)
	}
}

// exportArtifacts groups the scan's outcome per analyzed (non-skipped)
// file: its findings from the deduplicated result and the summaries of
// the functions it declares. Every analyzed file gets an entry, even an
// empty one — "analyzed and clean" must be reusable too.
func (a *analysis) exportArtifacts() map[string]*FileResult {
	out := make(map[string]*FileResult, len(a.fileOrder))
	for _, path := range a.fileOrder {
		if a.skipped(path) {
			continue
		}
		out[path] = &FileResult{Steps: a.fileSteps[path]}
	}
	for _, f := range a.result.Findings {
		if fr, ok := out[f.File]; ok {
			fr.Findings = append(fr.Findings, f)
		}
	}
	for _, key := range sortedKeys(a.summaries) {
		s := a.summaries[key]
		if !s.done || s.imported {
			continue
		}
		fr, ok := out[s.file]
		if !ok {
			continue
		}
		if fr.Summaries == nil {
			fr.Summaries = make(map[string]*PortableSummary, 4)
		}
		fr.Summaries[key] = portableSummary(s)
	}
	return out
}

// sortedKeys returns the map's keys in sorted order, for deterministic
// iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---------------------------------------------------------------------------
// summary <-> portable conversions
// ---------------------------------------------------------------------------

// portableSummary converts an engine summary to its serializable form.
func portableSummary(s *summary) *PortableSummary {
	out := &PortableSummary{Ret: portableValue(s.ret)}
	for _, f := range s.flows {
		out.Flows = append(out.Flows, PortableFlow{
			Param:    f.param,
			Class:    f.class,
			Sink:     f.sink,
			File:     f.file,
			Line:     f.line,
			Variable: f.variable,
			CWE:      f.cwe,
			Severity: f.severity,
		})
	}
	return out
}

// summary reconstructs an engine summary marked complete and imported.
func (p *PortableSummary) summary(file string) *summary {
	s := &summary{done: true, imported: true, file: file}
	if p == nil {
		s.ret = untainted()
		return s
	}
	s.ret = p.Ret.value()
	for _, f := range p.Flows {
		s.flows = append(s.flows, sinkFlow{
			param:    f.Param,
			class:    f.Class,
			sink:     f.Sink,
			file:     f.File,
			line:     f.Line,
			variable: f.Variable,
			cwe:      f.CWE,
			severity: f.Severity,
		})
	}
	return s
}

// portableValue converts an abstract value to its serializable form.
// Per-class and per-parameter state is flattened into slices ordered by
// class and parameter number, so the encoding is deterministic.
func portableValue(v *value) *PortableValue {
	if v == nil {
		return nil
	}
	out := &PortableValue{Class: v.class, Numeric: v.numeric}
	out.Taints = portableTaints(&v.taints)
	if v.latent != nil {
		out.Latent = portableTaints(v.latent)
	}
	for _, dep := range v.params {
		out.Params = append(out.Params, PortableParam{
			Param:   dep.param,
			Classes: dep.classes.list(),
		})
	}
	if len(v.filters) > 0 {
		out.Filters = append([]string(nil), v.filters...)
	}
	return out
}

// value reconstructs an abstract value from its serializable form.
func (p *PortableValue) value() *value {
	if p == nil {
		return untainted()
	}
	v := &value{class: p.Class, numeric: p.Numeric}
	v.taints = taintSetOf(p.Taints)
	if len(p.Latent) > 0 {
		latent := taintSetOf(p.Latent)
		v.latent = &latent
	}
	for _, pp := range p.Params {
		var classes classSet
		for _, c := range pp.Classes {
			classes |= classBit(c)
		}
		v.params.add(pp.Param, classes)
	}
	if len(p.Filters) > 0 {
		v.filters = append([]string(nil), p.Filters...)
	}
	return v
}

// portableTaints flattens a taint set into a class-ordered slice.
func portableTaints(s *taintSet) []PortableTaint {
	var out []PortableTaint
	for _, c := range s.set.list() {
		t, _ := s.get(c)
		pt := PortableTaint{Class: c, Vector: t.vector}
		if len(t.trace) > 0 {
			pt.Trace = append([]analyzer.TraceStep(nil), t.trace...)
		}
		out = append(out, pt)
	}
	return out
}

// taintSetOf rebuilds a taint set from its flattened form.
func taintSetOf(list []PortableTaint) taintSet {
	var s taintSet
	for _, pt := range list {
		ti := &taintInfo{vector: pt.Vector}
		if len(pt.Trace) > 0 {
			ti.trace = append([]analyzer.TraceStep(nil), pt.Trace...)
		}
		s.put(pt.Class, ti)
	}
	return s
}
