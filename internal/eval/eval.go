// Package eval is the evaluation harness of the reproduction: it runs
// the three analyzers over a generated corpus, matches their reports
// against the ground truth (standing in for the paper's manual expert
// verification, §IV.B step 5), and computes every number the paper's
// evaluation section reports — Table I metrics, the Fig. 2 overlap sets,
// the Table II input-vector breakdown, the §V.D inertia analysis and the
// Table III timing/robustness figures.
package eval

import (
	"context"
	"fmt"
	"time"

	"repro/internal/analyzer"
	"repro/internal/corpus"
	"repro/internal/obs"
)

// lineTolerance is how far a reported line may sit from the ground-truth
// sink line and still match (tools disagree slightly on multi-line
// statements).
const lineTolerance = 0

// ToolRun is the raw output of one tool over one corpus.
type ToolRun struct {
	// Tool is the tool's display name.
	Tool string
	// Results holds one result per plugin, in corpus order.
	Results []*analyzer.Result
	// Duration is the wall-clock analysis time for the whole corpus.
	Duration time.Duration
}

// Options tunes a tool run over a corpus. The zero value runs
// serially, uninstrumented, with default budgets.
type Options struct {
	// Workers sizes the worker pool; 0 or 1 runs serially (the paper's
	// Table III mode), negative uses GOMAXPROCS.
	Workers int
	// Recorder receives per-plugin spans and harness metrics (queue
	// wait, plugins completed); nil disables harness instrumentation.
	Recorder *obs.Recorder
	// Progress, when non-nil, is called after each plugin completes.
	// Under a worker pool it is invoked from worker goroutines but
	// never concurrently.
	Progress func(ev Progress)
	// Budgets carries per-plugin resource budgets into every engine;
	// nil means defaults.
	Budgets *analyzer.ScanOptions
}

// Progress is one progress-callback event.
type Progress struct {
	// Tool is the running tool's display name.
	Tool string
	// Plugin is the plugin that just finished.
	Plugin string
	// Done and Total count completed and overall plugins.
	Done, Total int
	// Err is the plugin's analysis error, nil on success.
	Err error
}

// Run executes a tool over every plugin of a corpus, timing it. It is
// the one entry point for corpus sweeps: opts selects serial or pooled
// execution, instrumentation and budgets, and ctx cancels the sweep
// between (and, for governed engines, inside) plugins. With Workers > 1
// it delegates to the worker pool; results keep corpus order either
// way.
func Run(ctx context.Context, tool analyzer.Analyzer, c *corpus.Corpus, opts Options) (*ToolRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Workers > 1 || opts.Workers < 0 {
		return runParallel(ctx, tool, c, opts)
	}
	run := &ToolRun{Tool: tool.Name()}
	rec := opts.Recorder
	start := time.Now()
	for i, target := range c.Targets {
		sp := rec.StartNamedSpan("plugin:", target.Name, nil)
		// A context already dead skips the engine but still flows through
		// the progress/error path, so cancellation between plugins is
		// reported identically to cancellation inside one.
		res, err := (*analyzer.Result)(nil), ctx.Err()
		if err == nil {
			res, err = tool.AnalyzeContext(ctx, target, opts.Budgets)
		}
		sp.EndAndObserve("eval_plugin_seconds")
		rec.Counter("eval_plugins_total").Inc()
		if opts.Progress != nil {
			opts.Progress(Progress{
				Tool: tool.Name(), Plugin: target.Name,
				Done: i + 1, Total: len(c.Targets), Err: err,
			})
		}
		if err != nil {
			run.Duration = time.Since(start)
			return run, fmt.Errorf("eval: %s on %s: %w", tool.Name(), target.Name, err)
		}
		run.Results = append(run.Results, res)
	}
	run.Duration = time.Since(start)
	return run, nil
}

// Counts is a TP/FP tally with derived metrics.
type Counts struct {
	TP int
	FP int
	FN int
}

// Precision returns TP/(TP+FP), or -1 when undefined.
func (c Counts) Precision() float64 {
	if c.TP+c.FP == 0 {
		return -1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or -1 when undefined.
func (c Counts) Recall() float64 {
	if c.TP+c.FN == 0 {
		return -1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// FScore returns the harmonic mean of precision and recall, or -1.
func (c Counts) FScore() float64 {
	p, r := c.Precision(), c.Recall()
	if p <= 0 || r <= 0 {
		return -1
	}
	return 2 * p * r / (p + r)
}

// ToolMetrics is one tool's oracle-matched outcome on one corpus.
type ToolMetrics struct {
	// Tool is the tool's display name.
	Tool string
	// Detected maps ground-truth IDs the tool found.
	Detected map[string]bool
	// ByClass holds TP/FP/FN per vulnerability class.
	ByClass map[analyzer.VulnClass]*Counts
	// Global is the all-classes tally.
	Global Counts
	// TrapFP counts false positives that hit seeded traps, per trap kind.
	TrapFP map[string]int
	// UnplannedFP counts false positives matching neither truth nor trap.
	UnplannedFP int
	// Duration is the wall-clock analysis time.
	Duration time.Duration
	// FilesAnalyzed / FilesFailed / ErrorCount aggregate robustness
	// accounting (§V.E).
	FilesAnalyzed int
	FilesFailed   int
	ErrorCount    int
	LinesAnalyzed int
}

// Evaluation is the complete oracle-matched outcome on one corpus.
type Evaluation struct {
	// Corpus is the evaluated snapshot.
	Corpus *corpus.Corpus
	// Tools holds per-tool metrics in run order.
	Tools []*ToolMetrics
	// UnionDetected maps truth IDs found by at least one tool (the
	// paper's "total number of vulnerabilities detected by the tools and
	// confirmed manually", §IV.B).
	UnionDetected map[string]bool
}

// truthKey indexes ground truths for matching.
type truthKey struct {
	plugin string
	file   string
	class  analyzer.VulnClass
}

// Evaluate matches tool runs against the corpus labels and computes the
// paper's metrics, including its optimistic FN definition: "we considered
// as the FN of one tool the vulnerabilities that it did not detect but
// were detected by the other tools" (§V.A).
func Evaluate(c *corpus.Corpus, runs []*ToolRun) *Evaluation {
	truthIdx := make(map[truthKey][]corpus.GroundTruth)
	for _, g := range c.Truths {
		k := truthKey{g.Plugin, g.File, g.Class}
		truthIdx[k] = append(truthIdx[k], g)
	}
	trapIdx := make(map[truthKey][]corpus.Trap)
	for _, tr := range c.Traps {
		k := truthKey{tr.Plugin, tr.File, tr.Class}
		trapIdx[k] = append(trapIdx[k], tr)
	}

	ev := &Evaluation{Corpus: c, UnionDetected: make(map[string]bool)}

	for _, run := range runs {
		tm := &ToolMetrics{
			Tool:     run.Tool,
			Detected: make(map[string]bool),
			ByClass:  make(map[analyzer.VulnClass]*Counts, len(analyzer.Classes())),
			TrapFP:   make(map[string]int),
			Duration: run.Duration,
		}
		for _, class := range analyzer.Classes() {
			tm.ByClass[class] = &Counts{}
		}
		for i, res := range run.Results {
			plugin := c.Targets[i].Name
			tm.FilesAnalyzed += res.FilesAnalyzed
			tm.FilesFailed += len(res.FilesFailed)
			tm.ErrorCount += len(res.Errors)
			tm.LinesAnalyzed += res.LinesAnalyzed
			for _, f := range res.Findings {
				matchFinding(tm, truthIdx, trapIdx, plugin, f)
			}
		}
		for id := range tm.Detected {
			ev.UnionDetected[id] = true
		}
		ev.Tools = append(ev.Tools, tm)
	}

	// Tally TPs per class, then the optimistic FNs.
	truthByID := make(map[string]corpus.GroundTruth, len(c.Truths))
	for _, g := range c.Truths {
		truthByID[g.ID] = g
	}
	for _, tm := range ev.Tools {
		for id := range tm.Detected {
			g := truthByID[id]
			tm.ByClass[g.Class].TP++
			tm.Global.TP++
		}
		for id := range ev.UnionDetected {
			if !tm.Detected[id] {
				g := truthByID[id]
				tm.ByClass[g.Class].FN++
				tm.Global.FN++
			}
		}
		for class, counts := range tm.ByClass {
			_ = class
			tm.Global.FP += counts.FP
		}
	}
	return ev
}

// matchFinding classifies one finding as TP (matches a truth), trap FP,
// or unplanned FP.
func matchFinding(tm *ToolMetrics, truthIdx map[truthKey][]corpus.GroundTruth,
	trapIdx map[truthKey][]corpus.Trap, plugin string, f analyzer.Finding) {

	k := truthKey{plugin, f.File, f.Class}
	for _, g := range truthIdx[k] {
		if abs(g.Line-f.Line) <= lineTolerance {
			tm.Detected[g.ID] = true
			return
		}
	}
	for _, tr := range trapIdx[k] {
		if abs(tr.Line-f.Line) <= lineTolerance {
			tm.ByClass[f.Class].FP++
			tm.TrapFP[tr.Kind]++
			return
		}
	}
	tm.ByClass[f.Class].FP++
	tm.UnplannedFP++
}

// abs returns the absolute value of an int.
func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Tool returns the metrics for a tool by name, or nil.
func (ev *Evaluation) Tool(name string) *ToolMetrics {
	for _, tm := range ev.Tools {
		if tm.Tool == name {
			return tm
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Fig. 2: detection overlap
// ---------------------------------------------------------------------------

// Overlap is the Venn decomposition of detected vulnerabilities.
type Overlap struct {
	// Regions maps a subset signature (sorted tool names joined by "+")
	// to the number of vulnerabilities detected by exactly that subset.
	Regions map[string]int
	// Union is the total number of distinct detected vulnerabilities.
	Union int
	// Seeded is the total ground-truth size (vulnerabilities missed by
	// every tool = Seeded - Union; the paper's "empty circle").
	Seeded int
	// PerTool is each tool's total detections.
	PerTool map[string]int
}

// ComputeOverlap builds the Fig. 2 data.
func (ev *Evaluation) ComputeOverlap() Overlap {
	ov := Overlap{
		Regions: make(map[string]int),
		PerTool: make(map[string]int),
		Seeded:  len(ev.Corpus.Truths),
		Union:   len(ev.UnionDetected),
	}
	for id := range ev.UnionDetected {
		sig := ""
		for _, tm := range ev.Tools {
			if tm.Detected[id] {
				if sig != "" {
					sig += "+"
				}
				sig += tm.Tool
			}
		}
		ov.Regions[sig]++
	}
	for _, tm := range ev.Tools {
		ov.PerTool[tm.Tool] = len(tm.Detected)
	}
	return ov
}

// ---------------------------------------------------------------------------
// Table II: input vectors, §V.C root causes
// ---------------------------------------------------------------------------

// VectorBreakdown is one corpus's Table II column.
type VectorBreakdown struct {
	// Rows maps Table II row label → count of detected vulnerabilities.
	Rows map[string]int
	// Persisting maps row label → count also present in the 2012 version
	// (only meaningful for the 2014 corpus).
	Persisting map[string]int
	// Direct / DB / Indirect are the §V.C root-cause class totals.
	Direct   int
	DB       int
	Indirect int
	// NumericShare is the fraction of vulnerable variables meant to hold
	// numbers (§V.C reports 39%).
	NumericShare float64
}

// VectorRows lists Table II's row labels in paper order.
func VectorRows() []string {
	return []string{"POST", "GET", "POST/GET/COOKIE", "DB", "File/Function/Array"}
}

// ComputeVectors builds the Table II breakdown over the union of
// confirmed (detected) vulnerabilities, as the paper does.
func (ev *Evaluation) ComputeVectors() VectorBreakdown {
	vb := VectorBreakdown{
		Rows:       make(map[string]int),
		Persisting: make(map[string]int),
	}
	numeric, total := 0, 0
	for _, g := range ev.Corpus.Truths {
		if !ev.UnionDetected[g.ID] {
			continue
		}
		row := g.Vector.TableIIRow()
		vb.Rows[row]++
		if g.Persists {
			vb.Persisting[row]++
		}
		switch {
		case g.Vector.DirectlyManipulable():
			vb.Direct++
		case g.Vector == analyzer.VectorDB:
			vb.DB++
		default:
			vb.Indirect++
		}
		total++
		if g.Numeric {
			numeric++
		}
	}
	if total > 0 {
		vb.NumericShare = float64(numeric) / float64(total)
	}
	return vb
}

// ---------------------------------------------------------------------------
// §V.D: inertia in fixing vulnerabilities
// ---------------------------------------------------------------------------

// Inertia summarizes how many detected 2014 vulnerabilities were already
// disclosed in 2012.
type Inertia struct {
	// Detected2014 is the union-detected 2014 count.
	Detected2014 int
	// Persisting is how many of those persist from 2012.
	Persisting int
	// PersistingEasy is how many persisting ones are easy to exploit
	// (GET/POST/COOKIE manipulation, §V.D reports 24%).
	PersistingEasy int
}

// PersistShare returns the persisting fraction (§V.D reports 42%).
func (in Inertia) PersistShare() float64 {
	if in.Detected2014 == 0 {
		return 0
	}
	return float64(in.Persisting) / float64(in.Detected2014)
}

// EasyShare returns the easy-to-exploit fraction of persisting
// vulnerabilities.
func (in Inertia) EasyShare() float64 {
	if in.Persisting == 0 {
		return 0
	}
	return float64(in.PersistingEasy) / float64(in.Persisting)
}

// ComputeInertia builds the §V.D analysis; call it on the 2014
// evaluation.
func (ev *Evaluation) ComputeInertia() Inertia {
	var in Inertia
	for _, g := range ev.Corpus.Truths {
		if !ev.UnionDetected[g.ID] {
			continue
		}
		in.Detected2014++
		if !g.Persists {
			continue
		}
		in.Persisting++
		if g.EasyToExploit() {
			in.PersistingEasy++
		}
	}
	return in
}
