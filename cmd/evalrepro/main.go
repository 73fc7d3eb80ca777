// Command evalrepro regenerates the paper's evaluation (DSN 2015, §V) in
// one shot: it generates the two corpus snapshots, runs phpSAFE, RIPS and
// Pixy over both, and prints Table I, Fig. 2, Table II, the §V.D inertia
// analysis and Table III — plus a per-stage timing table (lex → parse →
// model → taint) from the observability layer, which the paper's single
// wall-clock Duration cannot show.
//
// Usage:
//
//	evalrepro                # everything
//	evalrepro -table 1       # Table I only
//	evalrepro -table venn    # Fig. 2 only
//	evalrepro -table 2       # Table II + §V.C root causes
//	evalrepro -table inertia # §V.D
//	evalrepro -table 3       # Table III + robustness
//	evalrepro -table stages  # per-stage timing breakdown only
//	evalrepro -table classes # per-class precision/recall (CWE, severity)
//	                         # over the extended corpus; -packs selects
//	                         # the rule packs (not part of "all")
//	evalrepro -seed 7        # alternative corpus seed
//	evalrepro -parallel 8    # worker pool (detection identical; timings
//	                         # not comparable with the paper's Table III)
//	evalrepro -progress      # per-plugin progress lines on stderr
//	evalrepro -bench F.json  # per-tool per-stage timing artifact
//	                         # (default BENCH_eval.json, "" disables)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/analyzer"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/incremental"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/taint"
)

func main() {
	os.Exit(run())
}

// run executes the reproduction and returns the process exit code.
func run() int {
	table := flag.String("table", "all", "which artifact to print: 1, venn, 2, inertia, 3, stages, classes, all")
	seed := flag.Int64("seed", corpus.DefaultSpec().Seed, "corpus generation seed")
	packs := flag.String("packs", "wordpress,security-extended", "rule packs for -table classes")
	parallel := flag.Int("parallel", 0, "worker pool size (0 = serial; parallel wall-clock is not comparable for Table III)")
	summary := flag.String("summary", "", "also write machine-readable JSON summaries to <file>-2012.json and <file>-2014.json")
	bench := flag.String("bench", "BENCH_eval.json", "write per-tool per-stage timings to this file (\"\" disables)")
	fileWorkers := flag.Int("file-workers", 0, "per-scan file worker pool (0 = all cores, 1 = serial)")
	progress := flag.Bool("progress", false, "print per-plugin progress lines to stderr")
	flag.Parse()

	spec := corpus.DefaultSpec()
	spec.Seed = *seed

	// SIGINT aborts the sweep through the context-first analyzer API:
	// the running engine stops at its next governor checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *table == "classes" {
		return runClassTable(ctx, spec, *packs)
	}

	fmt.Fprintf(os.Stderr, "generating corpus (seed %d)...\n", spec.Seed)
	c12, c14, err := corpus.Generate(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "evalrepro: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "2012: %d plugins, %d files, %d lines, %d seeded vulnerabilities\n",
		len(c12.Targets), c12.Files(), c12.Lines(), len(c12.Truths))
	fmt.Fprintf(os.Stderr, "2014: %d plugins, %d files, %d lines, %d seeded vulnerabilities\n",
		len(c14.Targets), c14.Files(), c14.Lines(), len(c14.Truths))

	fmt.Fprintln(os.Stderr, "running phpSAFE, RIPS and Pixy on both versions...")

	// One recorder per (corpus, tool) keeps per-tool stage timings
	// separable for the stages table and the bench artifact.
	recorders := map[string]map[string]*obs.Recorder{"2012": {}, "2014": {}}
	evaluate := func(tag string, c *corpus.Corpus) (*eval.Evaluation, error) {
		opts := eval.EvalOptions{
			Workers: *parallel,
			RecorderFor: func(tool string) *obs.Recorder {
				rec := obs.NewRecorder()
				recorders[tag][tool] = rec
				return rec
			},
		}
		if *fileWorkers != 0 {
			opts.Budgets = &analyzer.ScanOptions{FileWorkers: *fileWorkers}
		}
		if *progress {
			opts.Progress = func(ev eval.Progress) {
				status := ""
				if ev.Err != nil {
					status = "  ERROR: " + ev.Err.Error()
				}
				fmt.Fprintf(os.Stderr, "  [%s/%s] %3d/%3d %s%s\n",
					tag, ev.Tool, ev.Done, ev.Total, ev.Plugin, status)
			}
		}
		return eval.EvaluateCorpusContext(ctx, c, opts)
	}
	ev12, err := evaluate("2012", c12)
	if err != nil {
		fmt.Fprintf(os.Stderr, "evalrepro: %v\n", err)
		return 1
	}
	ev14, err := evaluate("2014", c14)
	if err != nil {
		fmt.Fprintf(os.Stderr, "evalrepro: %v\n", err)
		return 1
	}

	if *summary != "" {
		for _, pair := range []struct {
			ev  *eval.Evaluation
			tag string
		}{{ev12, "2012"}, {ev14, "2014"}} {
			data, err := pair.ev.MarshalSummary()
			if err != nil {
				fmt.Fprintf(os.Stderr, "evalrepro: %v\n", err)
				return 1
			}
			path := *summary + "-" + pair.tag + ".json"
			if err := os.WriteFile(path, data, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "evalrepro: %v\n", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}

	if *bench != "" {
		inc, err := measureIncremental()
		if err != nil {
			fmt.Fprintf(os.Stderr, "evalrepro: %v\n", err)
			return 1
		}
		fw, err := measureFileWorkers(ctx, c14)
		if err != nil {
			fmt.Fprintf(os.Stderr, "evalrepro: %v\n", err)
			return 1
		}
		if err := writeBench(*bench, *seed, *parallel, recorders, inc, fw, ev12, ev14); err != nil {
			fmt.Fprintf(os.Stderr, "evalrepro: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *bench)
	}

	show := func(name string) bool { return *table == "all" || *table == name }
	if show("1") {
		fmt.Println(report.TableI(ev12, ev14))
		fmt.Println(report.Summary(ev12, ev14))
	}
	if show("venn") {
		fmt.Println(report.Fig2(ev12, ev14))
	}
	if show("2") {
		fmt.Println(report.TableII(ev12, ev14))
		fmt.Println()
	}
	if show("inertia") {
		fmt.Println(report.Inertia(ev14))
		fmt.Println()
	}
	if show("3") {
		fmt.Println(report.TableIII(ev12, ev14))
	}
	if show("stages") {
		fmt.Println(stageTable(recorders))
	}
	return 0
}

// runClassTable prints the per-class precision/recall breakdown (with
// CWE and severity metadata) over the extended corpus: the default
// population plus the command-injection, code-evaluation, traversal,
// inclusion and redirect seeds the selected rule packs can detect.
func runClassTable(ctx context.Context, spec corpus.Spec, packs string) int {
	spec.ExtendedClasses = true
	fmt.Fprintf(os.Stderr, "generating extended corpus (seed %d)...\n", spec.Seed)
	c12, c14, err := corpus.Generate(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "evalrepro: %v\n", err)
		return 1
	}
	tool, err := eval.BuildTool("phpsafe", packs, eval.ToolOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "evalrepro: %v\n", err)
		return 1
	}
	for _, snap := range []struct {
		tag string
		c   *corpus.Corpus
	}{{"2012", c12}, {"2014", c14}} {
		run, err := eval.Run(ctx, tool, snap.c, eval.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "evalrepro: %v\n", err)
			return 1
		}
		rows := eval.ClassBreakdown(snap.c, run)
		fmt.Println(eval.ClassTable(
			fmt.Sprintf("%s, %s corpus, packs %s", run.Tool, snap.tag, packs), rows))
	}
	return 0
}

// stageOrder lists the pipeline stages in execution order; "plugin" is
// the harness's whole-plugin wall clock.
var stageOrder = []string{"lex", "parse", "model", "taint", "plugin"}

// stageHistogram maps a stage name to its histogram in the registry.
func stageHistogram(stage string) string {
	if stage == "plugin" {
		return "eval_plugin_seconds"
	}
	return "stage_" + stage + "_seconds"
}

// stageTable renders the per-stage timing breakdown for both corpora —
// the instrumentation-era companion to the paper's Table III. Stage
// sums overlap by construction (lex ⊂ parse ⊂ model ⊂ plugin): each row
// is the total time attributed to that stage, not an exclusive share.
func stageTable(recorders map[string]map[string]*obs.Recorder) string {
	var sb strings.Builder
	sb.WriteString("Per-stage analysis time (from the observability layer; seconds summed over the corpus)\n")
	sb.WriteString("lex is included in parse, parse in model, and every stage in plugin\n")
	for _, tag := range []string{"2012", "2014"} {
		tools := make([]string, 0, len(recorders[tag]))
		for tool := range recorders[tag] {
			tools = append(tools, tool)
		}
		sort.Strings(tools)
		sb.WriteString(fmt.Sprintf("\n%s corpus\n", tag))
		sb.WriteString(fmt.Sprintf("  %-8s", "stage"))
		for _, tool := range tools {
			sb.WriteString(fmt.Sprintf(" %12s", tool))
		}
		sb.WriteByte('\n')
		for _, stage := range stageOrder {
			sb.WriteString(fmt.Sprintf("  %-8s", stage))
			for _, tool := range tools {
				h := recorders[tag][tool].Histogram(stageHistogram(stage))
				sb.WriteString(fmt.Sprintf(" %12.3f", h.Sum()))
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// benchStage is one stage's timing aggregate in the bench artifact.
type benchStage struct {
	// SumSeconds is the stage's total time over the whole corpus.
	SumSeconds float64 `json:"sum_seconds"`
	// Count is the number of stage executions (files for lex/parse,
	// plugins for model/taint/plugin).
	Count int64 `json:"count"`
}

// benchTool is one tool's timing entry in the bench artifact.
type benchTool struct {
	// WallClockMS is the tool's whole-corpus duration (the Table III
	// figure).
	WallClockMS float64 `json:"wall_clock_ms"`
	// Stages maps stage name to its aggregate.
	Stages map[string]benchStage `json:"stages"`
	// Counters carries every counter the tool's recorder accumulated
	// (tokens lexed, AST nodes, functions analyzed, ...).
	Counters map[string]int64 `json:"counters"`
}

// benchIncremental records the incremental-rescan comparison: a cold
// scan of an N-file plugin against a warm re-scan after a one-file edit
// (artifacts from the previous version reused for the other N-1 files).
type benchIncremental struct {
	Files       int     `json:"files"`
	ColdMS      float64 `json:"cold_ms"`
	WarmMS      float64 `json:"warm_ms"`
	Speedup     float64 `json:"speedup"`
	ReusedFiles int     `json:"reused_files"`
}

// measureIncremental runs the cold-vs-warm rescan comparison on the
// synthetic incremental fixture (the BenchmarkIncrementalRescan shape,
// medianless: best of three to damp scheduler noise).
func measureIncremental() (*benchIncremental, error) {
	const nfiles, rounds = 40, 3
	base := incremental.SyntheticTarget(nfiles)
	tool, err := eval.BuildTool("phpsafe", "wordpress", eval.ToolOptions{})
	if err != nil {
		return nil, err
	}
	eng := tool.(*taint.Engine)
	store, err := incremental.NewStore("", nil)
	if err != nil {
		return nil, err
	}
	inc := incremental.New(eng, store, "bench", nil)
	if _, _, err := inc.Analyze(context.Background(), base, nil); err != nil {
		return nil, err
	}

	out := &benchIncremental{Files: nfiles}
	for i := 0; i < rounds; i++ {
		dirty := incremental.Touch(base, 0, i)

		start := time.Now()
		if _, err := eng.AnalyzeContext(context.Background(), dirty, nil); err != nil {
			return nil, err
		}
		cold := float64(time.Since(start).Microseconds()) / 1000

		start = time.Now()
		_, rep, err := inc.Analyze(context.Background(), dirty, nil)
		if err != nil {
			return nil, err
		}
		warm := float64(time.Since(start).Microseconds()) / 1000

		if i == 0 || cold < out.ColdMS {
			out.ColdMS = cold
		}
		if i == 0 || warm < out.WarmMS {
			out.WarmMS = warm
		}
		out.ReusedFiles = rep.ReusedFiles
	}
	if out.WarmMS > 0 {
		out.Speedup = out.ColdMS / out.WarmMS
	}
	return out, nil
}

// benchFileWorkers is the intra-scan parallel pipeline's cold-scan
// comparison: the same full-corpus phpSAFE sweep at FileWorkers=1 vs
// FileWorkers=GOMAXPROCS. Output is byte-identical either way; only
// the wall clock moves, and only as far as the host's cores allow.
type benchFileWorkers struct {
	// Workers is GOMAXPROCS on the measuring host — the parallel run's
	// pool size and the ceiling on any speedup.
	Workers    int     `json:"workers"`
	SerialMS   float64 `json:"serial_ms"`
	ParallelMS float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
}

// measureFileWorkers times the serial-vs-parallel cold sweep (best of
// three rounds each, same corpus, same engine).
func measureFileWorkers(ctx context.Context, c *corpus.Corpus) (*benchFileWorkers, error) {
	tool, err := eval.BuildTool("phpsafe", "wordpress", eval.ToolOptions{})
	if err != nil {
		return nil, err
	}
	out := &benchFileWorkers{Workers: runtime.GOMAXPROCS(0)}
	const rounds = 3
	for i := 0; i < rounds; i++ {
		for _, mode := range []struct {
			workers int
			ms      *float64
		}{{1, &out.SerialMS}, {out.Workers, &out.ParallelMS}} {
			start := time.Now()
			if _, err := eval.Run(ctx, tool, c, eval.Options{
				Budgets: &analyzer.ScanOptions{FileWorkers: mode.workers},
			}); err != nil {
				return nil, err
			}
			ms := float64(time.Since(start).Microseconds()) / 1000
			if i == 0 || ms < *mode.ms {
				*mode.ms = ms
			}
		}
	}
	if out.ParallelMS > 0 {
		out.Speedup = out.SerialMS / out.ParallelMS
	}
	return out, nil
}

// benchDoc is the BENCH_eval.json schema: a perf trajectory point for
// future PRs to compare against.
type benchDoc struct {
	Seed              int64                           `json:"seed"`
	Parallel          int                             `json:"parallel"`
	IncrementalRescan *benchIncremental               `json:"incremental_rescan,omitempty"`
	FileWorkers       *benchFileWorkers               `json:"file_workers,omitempty"`
	Corpora           map[string]map[string]benchTool `json:"corpora"`
}

// writeBench renders the per-tool, per-stage timing artifact.
func writeBench(path string, seed int64, parallel int,
	recorders map[string]map[string]*obs.Recorder, inc *benchIncremental,
	fw *benchFileWorkers, evs ...*eval.Evaluation) error {

	doc := benchDoc{Seed: seed, Parallel: parallel, IncrementalRescan: inc,
		FileWorkers: fw, Corpora: map[string]map[string]benchTool{}}
	for i, tag := range []string{"2012", "2014"} {
		doc.Corpora[tag] = map[string]benchTool{}
		for tool, rec := range recorders[tag] {
			snap := rec.Snapshot()
			bt := benchTool{
				Stages:   map[string]benchStage{},
				Counters: snap.Counters,
			}
			if tm := evs[i].Tool(tool); tm != nil {
				bt.WallClockMS = float64(tm.Duration.Microseconds()) / 1000
			}
			for _, stage := range stageOrder {
				if hs, ok := snap.Histograms[stageHistogram(stage)]; ok {
					bt.Stages[stage] = benchStage{SumSeconds: hs.Sum, Count: hs.Count}
				}
			}
			doc.Corpora[tag][tool] = bt
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
