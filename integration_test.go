package repro

// End-to-end integration tests across package boundaries: corpus →
// disk → loader → analyzers → evaluation, the same path the command-line
// tools take.

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/evolution"
	"repro/internal/rulepack"
	"repro/internal/taint"
)

// writeTarget materializes one plugin to disk the way cmd/corpusgen does.
func writeTarget(t *testing.T, root string, target *analyzer.Target) string {
	t.Helper()
	dir := filepath.Join(root, target.Name)
	for _, f := range target.Files {
		path := filepath.Join(dir, filepath.FromSlash(f.Path))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(f.Content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestDiskRoundTrip verifies that a plugin written to disk and loaded
// back produces the identical analysis as the in-memory target.
func TestDiskRoundTrip(t *testing.T) {
	t.Parallel()
	_, c14 := corpus.MustGenerate()
	target := c14.Target("mail-subscribe-list")
	if target == nil {
		t.Fatal("plugin missing from corpus")
	}

	dir := writeTarget(t, t.TempDir(), target)
	loaded, err := analyzer.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Files) != len(target.Files) {
		t.Fatalf("loaded %d files, want %d", len(loaded.Files), len(target.Files))
	}

	engine := taint.New(rulepack.MustCompile("wordpress"), taint.DefaultOptions())
	memRes, err := engine.AnalyzeContext(context.Background(), target, nil)
	if err != nil {
		t.Fatal(err)
	}
	diskRes, err := engine.AnalyzeContext(context.Background(), loaded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(memRes.Findings) != len(diskRes.Findings) {
		t.Fatalf("in-memory %d findings, from disk %d",
			len(memRes.Findings), len(diskRes.Findings))
	}
	for i := range memRes.Findings {
		if memRes.Findings[i].Key() != diskRes.Findings[i].Key() {
			t.Fatalf("finding %d differs: %s vs %s",
				i, memRes.Findings[i].Key(), diskRes.Findings[i].Key())
		}
	}
}

// TestAllToolsOnDiskTarget runs all three analyzers over a disk-loaded
// plugin to exercise the CLI code path for each engine.
func TestAllToolsOnDiskTarget(t *testing.T) {
	t.Parallel()
	c12, _ := corpus.MustGenerate()
	target := c12.Target("qtranslate") // a procedural plugin all tools can parse
	if target == nil {
		t.Fatal("plugin missing from corpus")
	}
	dir := writeTarget(t, t.TempDir(), target)
	loaded, err := analyzer.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range eval.Tools(nil) {
		res, err := tool.AnalyzeContext(context.Background(), loaded, nil)
		if err != nil {
			t.Fatalf("%s: %v", tool.Name(), err)
		}
		if res.FilesAnalyzed == 0 {
			t.Errorf("%s analyzed no files", tool.Name())
		}
	}
}

// TestEvolutionPipelineOverCorpus runs the full §V.D pipeline: analyze
// both corpus versions of every plugin and aggregate the evolution
// reports; the corpus-wide persisting share must land near the paper's
// 42%.
func TestEvolutionPipelineOverCorpus(t *testing.T) {
	t.Parallel()
	c12, c14 := corpus.MustGenerate()
	engine := taint.New(rulepack.MustCompile("wordpress"), taint.DefaultOptions())

	persisting, newTotal := 0, 0
	for _, oldTarget := range c12.Targets {
		newTarget := c14.Target(oldTarget.Name)
		if newTarget == nil {
			t.Fatalf("plugin %s missing from 2014", oldTarget.Name)
		}
		oldRes, err := engine.AnalyzeContext(context.Background(), oldTarget, nil)
		if err != nil {
			t.Fatal(err)
		}
		newRes, err := engine.AnalyzeContext(context.Background(), newTarget, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep := evolution.Compare(oldRes, newRes, "2012", "2014")
		persisting += rep.Count(evolution.Persisting)
		newTotal += rep.Count(evolution.Persisting) + rep.Count(evolution.Introduced)
	}
	share := float64(persisting) / float64(newTotal)
	if share < 0.25 || share > 0.60 {
		t.Errorf("corpus-wide persisting share = %.2f, want near 0.42", share)
	}
}

// TestDeterministicEvaluation verifies the whole pipeline is reproducible:
// two independent corpus generations and evaluations agree exactly.
func TestDeterministicEvaluation(t *testing.T) {
	t.Parallel()
	run := func() (int, int) {
		c12, _, err := corpus.Generate(corpus.DefaultSpec())
		if err != nil {
			t.Fatal(err)
		}
		ev, err := eval.EvaluateCorpusContext(context.Background(), c12, eval.EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return ev.Tool("phpSAFE").Global.TP, ev.Tool("phpSAFE").Global.FP
	}
	tp1, fp1 := run()
	tp2, fp2 := run()
	if tp1 != tp2 || fp1 != fp2 {
		t.Fatalf("non-deterministic evaluation: (%d,%d) vs (%d,%d)", tp1, fp1, tp2, fp2)
	}
}

// TestAlternateSeedStillHoldsShape verifies the headline result is not an
// artifact of the default seed: with a different seed the ranking and
// the OOP monopoly must still hold.
func TestAlternateSeedStillHoldsShape(t *testing.T) {
	t.Parallel()
	spec := corpus.DefaultSpec()
	spec.Seed = 7
	c12, _, err := corpus.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := eval.EvaluateCorpusContext(context.Background(), c12, eval.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	php := ev.Tool("phpSAFE").Global
	rips := ev.Tool("RIPS").Global
	pixy := ev.Tool("Pixy").Global
	if !(php.TP > rips.TP && rips.TP > pixy.TP) {
		t.Errorf("seed 7: TP ranking broken: %d %d %d", php.TP, rips.TP, pixy.TP)
	}
	if !(php.Precision() > rips.Precision() && rips.Precision() > pixy.Precision()) {
		t.Errorf("seed 7: precision ranking broken: %.2f %.2f %.2f",
			php.Precision(), rips.Precision(), pixy.Precision())
	}
}
