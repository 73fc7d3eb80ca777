package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (DSN 2015, §V), plus ablation benchmarks for the
// design decisions called out in DESIGN.md §4.
//
// Each table/figure benchmark regenerates the corresponding artifact: it
// runs the three analyzers over the generated corpus, prints the rendered
// table once per `go test -bench` invocation, and reports the headline
// numbers as benchmark metrics so regressions are visible in -benchmem
// output diffs.
//
// Run everything with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/incremental"
	"repro/internal/pixy"
	"repro/internal/report"
	"repro/internal/rips"
	"repro/internal/rulepack"
	"repro/internal/taint"
)

// corpora caches the generated corpus pair for all benchmarks.
var (
	corporaOnce sync.Once
	bench2012   *corpus.Corpus
	bench2014   *corpus.Corpus
)

// corpora returns the shared corpus snapshots.
func corpora() (*corpus.Corpus, *corpus.Corpus) {
	corporaOnce.Do(func() {
		bench2012, bench2014 = corpus.MustGenerate()
	})
	return bench2012, bench2014
}

// evalsOnce caches one full evaluation pair for the quality benchmarks.
var (
	evalsOnceGuard sync.Once
	benchEval2012  *eval.Evaluation
	benchEval2014  *eval.Evaluation
	evalsErr       error
)

// evaluations returns the shared evaluation pair.
func evaluations(b *testing.B) (*eval.Evaluation, *eval.Evaluation) {
	b.Helper()
	evalsOnceGuard.Do(func() {
		c12, c14 := corpora()
		benchEval2012, evalsErr = eval.EvaluateCorpusContext(context.Background(), c12, eval.EvalOptions{})
		if evalsErr != nil {
			return
		}
		benchEval2014, evalsErr = eval.EvaluateCorpusContext(context.Background(), c14, eval.EvalOptions{})
	})
	if evalsErr != nil {
		b.Fatal(evalsErr)
	}
	return benchEval2012, benchEval2014
}

// printOnce guards help each artifact print exactly once per invocation.
var (
	printTableI   sync.Once
	printFig2     sync.Once
	printTableII  sync.Once
	printInertia  sync.Once
	printTableIII sync.Once
)

// BenchmarkTableI regenerates Table I: per-tool, per-class TP/FP/
// precision/recall/F-score on both corpus versions. The benchmark loop
// measures a full three-tool evaluation of the 2012 corpus; the headline
// metrics are attached as custom benchmark units.
func BenchmarkTableI(b *testing.B) {
	e12, e14 := evaluations(b)
	printTableI.Do(func() {
		fmt.Println(report.TableI(e12, e14))
		fmt.Println(report.Summary(e12, e14))
	})
	php12 := e12.Tool("phpSAFE").Global
	rips12 := e12.Tool("RIPS").Global
	pixy12 := e12.Tool("Pixy").Global
	b.ReportMetric(float64(php12.TP), "phpSAFE-TP-2012")
	b.ReportMetric(float64(rips12.TP), "RIPS-TP-2012")
	b.ReportMetric(float64(pixy12.TP), "Pixy-TP-2012")
	b.ReportMetric(php12.Precision()*100, "phpSAFE-P%-2012")

	c12, _ := corpora()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.EvaluateCorpusContext(context.Background(), c12, eval.EvalOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2 regenerates Fig. 2: the detection-overlap Venn regions
// and the two-year growth in distinct vulnerabilities.
func BenchmarkFig2(b *testing.B) {
	e12, e14 := evaluations(b)
	printFig2.Do(func() {
		fmt.Println(report.Fig2(e12, e14))
	})
	ov12, ov14 := e12.ComputeOverlap(), e14.ComputeOverlap()
	b.ReportMetric(float64(ov12.Union), "distinct-2012")
	b.ReportMetric(float64(ov14.Union), "distinct-2014")
	b.ReportMetric(100*float64(ov14.Union-ov12.Union)/float64(ov12.Union), "growth-%")

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e12.ComputeOverlap()
		e14.ComputeOverlap()
	}
}

// BenchmarkTableII regenerates Table II: the input-vector breakdown of
// the detected vulnerabilities plus the §V.C root-cause shares.
func BenchmarkTableII(b *testing.B) {
	e12, e14 := evaluations(b)
	printTableII.Do(func() {
		fmt.Println(report.TableII(e12, e14))
	})
	vb := e14.ComputeVectors()
	b.ReportMetric(float64(vb.Rows["DB"]), "DB-2014")
	b.ReportMetric(float64(vb.Rows["GET"]), "GET-2014")
	b.ReportMetric(vb.NumericShare*100, "numeric-%")

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e12.ComputeVectors()
		e14.ComputeVectors()
	}
}

// BenchmarkInertia regenerates the §V.D analysis: the share of 2014
// vulnerabilities already disclosed in 2012 and how many are easy to
// exploit.
func BenchmarkInertia(b *testing.B) {
	_, e14 := evaluations(b)
	printInertia.Do(func() {
		fmt.Println(report.Inertia(e14))
	})
	in := e14.ComputeInertia()
	b.ReportMetric(in.PersistShare()*100, "persist-%")
	b.ReportMetric(in.EasyShare()*100, "easy-%")

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e14.ComputeInertia()
	}
}

// BenchmarkTableIII regenerates Table III: per-tool wall-clock time over
// each corpus version. Each sub-benchmark is one tool on one corpus, so
// the -bench output itself is the table's data series; the rendered
// table (with s/KLOC normalization and the robustness accounting) prints
// once.
func BenchmarkTableIII(b *testing.B) {
	e12, e14 := evaluations(b)
	printTableIII.Do(func() {
		fmt.Println(report.TableIII(e12, e14))
	})

	c12, c14 := corpora()
	tools := []struct {
		name string
		mk   func() analyzer.Analyzer
	}{
		{"phpSAFE", func() analyzer.Analyzer {
			return taint.New(rulepack.MustCompile("wordpress"), taint.DefaultOptions())
		}},
		{"RIPS", func() analyzer.Analyzer { return rips.New(rulepack.MustCompile("generic")) }},
		{"Pixy", func() analyzer.Analyzer { return pixy.New() }},
	}
	versions := []struct {
		name string
		c    *corpus.Corpus
	}{
		{"2012", c12},
		{"2014", c14},
	}
	for _, tool := range tools {
		for _, ver := range versions {
			b.Run(tool.name+"-"+ver.name, func(b *testing.B) {
				engine := tool.mk()
				kloc := float64(ver.c.Lines()) / 1000
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, target := range ver.c.Targets {
						if _, err := engine.AnalyzeContext(context.Background(), target, nil); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				secsPerOp := b.Elapsed().Seconds() / float64(b.N)
				b.ReportMetric(secsPerOp/kloc*1000, "ms/KLOC")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md §4)
// ---------------------------------------------------------------------------

// ablationTP runs phpSAFE with modified options over the 2012 corpus and
// returns how many ground-truth vulnerabilities it detects.
func ablationTP(b *testing.B, opts taint.Options) int {
	b.Helper()
	c12, _ := corpora()
	engine := taint.New(rulepack.MustCompile("wordpress"), opts)
	run, err := eval.Run(context.Background(), engine, c12, eval.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ev := eval.Evaluate(c12, []*eval.ToolRun{run})
	return ev.Tools[0].Global.TP
}

// BenchmarkAblationSummaries compares function summaries (paper §II/§III.C)
// against whole-program re-analysis: summaries should be faster at equal
// detection quality.
func BenchmarkAblationSummaries(b *testing.B) {
	c12, _ := corpora()
	for _, mode := range []struct {
		name      string
		summaries bool
	}{
		{"summaries", true},
		{"whole-program", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opts := taint.DefaultOptions()
			opts.FunctionSummaries = mode.summaries
			engine := taint.New(rulepack.MustCompile("wordpress"), opts)
			b.ReportMetric(float64(ablationTP(b, opts)), "TP")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, target := range c12.Targets {
					if _, err := engine.AnalyzeContext(context.Background(), target, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationOOP quantifies §III.E: disabling object-oriented
// analysis forfeits every WordPress-object vulnerability (the RIPS/Pixy
// blind spot).
func BenchmarkAblationOOP(b *testing.B) {
	for _, mode := range []struct {
		name string
		oop  bool
	}{
		{"oop-on", true},
		{"oop-off", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opts := taint.DefaultOptions()
			opts.OOP = mode.oop
			tp := ablationTP(b, opts)
			b.ReportMetric(float64(tp), "TP")
			for i := 0; i < b.N; i++ {
				_ = tp
			}
		})
	}
}

// BenchmarkAblationUncalled quantifies §III.B-C: skipping functions that
// are never called from plugin code loses the hook-callback attack
// surface.
func BenchmarkAblationUncalled(b *testing.B) {
	for _, mode := range []struct {
		name     string
		uncalled bool
	}{
		{"uncalled-analyzed", true},
		{"reachable-only", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opts := taint.DefaultOptions()
			opts.AnalyzeUncalled = mode.uncalled
			tp := ablationTP(b, opts)
			b.ReportMetric(float64(tp), "TP")
			for i := 0; i < b.N; i++ {
				_ = tp
			}
		})
	}
}

// BenchmarkAblationCMSProfile quantifies §III.A: running phpSAFE with
// only generic PHP knowledge (no wordpress pack) loses the framework
// sources and sanitizers.
func BenchmarkAblationCMSProfile(b *testing.B) {
	c12, _ := corpora()
	for _, mode := range []struct {
		name string
		mk   func() analyzer.Analyzer
	}{
		{"wordpress-profile", func() analyzer.Analyzer {
			return taint.New(rulepack.MustCompile("wordpress"), taint.DefaultOptions())
		}},
		{"generic-only", func() analyzer.Analyzer {
			return taint.New(rulepack.MustCompile("generic"), taint.DefaultOptions())
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			engine := mode.mk()
			run, err := eval.Run(context.Background(), engine, c12, eval.Options{})
			if err != nil {
				b.Fatal(err)
			}
			ev := eval.Evaluate(c12, []*eval.ToolRun{run})
			b.ReportMetric(float64(ev.Tools[0].Global.TP), "TP")
			b.ReportMetric(float64(ev.Tools[0].Global.FP), "FP")
			for i := 0; i < b.N; i++ {
				_ = ev
			}
		})
	}
}

// BenchmarkCorpusGeneration measures the deterministic corpus generator.
func BenchmarkCorpusGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := corpus.Generate(corpus.DefaultSpec()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalRescan measures the incremental subsystem's core
// promise: re-scanning a plugin after a one-file edit beats a cold scan
// because unchanged dependency components replay stored artifacts. The
// cold case analyzes every file from scratch; the warm case seeds an
// artifact store with the clean version once, then each iteration scans
// a freshly touched copy (fresh content hash every time, so exactly one
// file is re-analyzed per iteration).
func BenchmarkIncrementalRescan(b *testing.B) {
	const nfiles = 40
	base := incremental.SyntheticTarget(nfiles)

	newEngine := func(b *testing.B) *taint.Engine {
		b.Helper()
		tool, err := eval.BuildTool("phpsafe", "wordpress", eval.ToolOptions{})
		if err != nil {
			b.Fatal(err)
		}
		return tool.(*taint.Engine)
	}

	b.Run("cold", func(b *testing.B) {
		eng := newEngine(b)
		for i := 0; i < b.N; i++ {
			dirty := incremental.Touch(base, 0, i)
			if _, err := eng.AnalyzeContext(context.Background(), dirty, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm-1-dirty", func(b *testing.B) {
		eng := newEngine(b)
		store, err := incremental.NewStore("", nil)
		if err != nil {
			b.Fatal(err)
		}
		inc := incremental.New(eng, store, "bench", nil)
		if _, _, err := inc.Analyze(context.Background(), base, nil); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dirty := incremental.Touch(base, 0, i)
			res, rep, err := inc.Analyze(context.Background(), dirty, nil)
			if err != nil {
				b.Fatal(err)
			}
			if rep.ReusedFiles != nfiles-1 {
				b.Fatalf("reused %d files, want %d", rep.ReusedFiles, nfiles-1)
			}
			if len(res.Findings) == 0 {
				b.Fatal("no findings")
			}
		}
	})
}
