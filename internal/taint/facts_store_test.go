package taint_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/incremental"
	"repro/internal/phpast"
	"repro/internal/taint"
)

// TestStoreServedFactsMatchFreshParse is the cached-facts differential:
// over all 70 corpus snapshots, linking the model over ASTs that every
// come from the incremental store — put there by a real scan, with the
// facts their parse recorded — gives the same model inventory, the same
// include-budget verdicts and the same dependency components as a fresh
// parse.
func TestStoreServedFactsMatchFreshParse(t *testing.T) {
	tool, err := eval.BuildTool("phpsafe", "wordpress", eval.ToolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := tool.(*taint.Engine)
	c12, c14 := corpus.MustGenerate()
	targets := append(append([]*analyzer.Target{}, c12.Targets...), c14.Targets...)
	if len(targets) != 70 {
		t.Fatalf("%d corpus snapshots, want 70", len(targets))
	}
	failedTotal := 0
	for _, target := range targets {
		store, err := incremental.NewStore("", nil)
		if err != nil {
			t.Fatal(err)
		}
		// A multi-worker scan fills the store, its parses folding names
		// through per-worker interner shards.
		opts := &analyzer.ScanOptions{FileWorkers: 4}
		if _, _, err := incremental.New(eng, store, "facts-test", nil).Analyze(context.Background(), target, opts); err != nil {
			t.Fatalf("%s: scan: %v", target.Name, err)
		}
		cached := make(map[string]*phpast.File, len(target.Files))
		for _, sf := range target.Files {
			f, ok := store.AST(sf.Path, sf.Digest(), opts.EffectiveMaxParseDepth())
			if !ok {
				t.Fatalf("%s: %s is not in the store", target.Name, sf.Path)
			}
			cached[sf.Path] = f
		}

		freshModel, freshFailed, freshFiles := eng.ModelOver(target, nil)
		warmModel, warmFailed, warmFiles := eng.ModelOver(target, cached)
		for path, f := range warmFiles {
			if f != cached[path] {
				t.Fatalf("%s: %s was parsed again instead of served from the store", target.Name, path)
			}
		}
		if !reflect.DeepEqual(warmModel, freshModel) {
			t.Errorf("%s: model inventory differs\nstore: %+v\nfresh: %+v", target.Name, warmModel, freshModel)
		}
		if !reflect.DeepEqual(warmFailed, freshFailed) {
			t.Errorf("%s: include budget fails %v from the store, %v fresh", target.Name, warmFailed, freshFailed)
		}
		warmComps := incremental.BuildGraph(warmFiles, eng.IsSuperglobal).Components()
		freshComps := incremental.BuildGraph(freshFiles, eng.IsSuperglobal).Components()
		if !reflect.DeepEqual(warmComps, freshComps) {
			t.Errorf("%s: components differ\nstore: %v\nfresh: %v", target.Name, warmComps, freshComps)
		}
		failedTotal += len(freshFailed)
	}
	// The paper's phpSAFE failed one file in 2012 and three in 2014 on
	// its include budget; the corpus reproduces them, so the verdicts
	// compared above are not all empty.
	if failedTotal != 4 {
		t.Errorf("the include budget failed %d corpus files, want 4", failedTotal)
	}
}
