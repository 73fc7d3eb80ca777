package incremental

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/corpus"
	"repro/internal/report"
)

// TestDifferentialColdVsWarmCorpus is the incremental subsystem's
// correctness gate: for every plugin in both corpus snapshots, a warm
// scan (store populated by a full scan of the original plugin, then one
// file touched) must produce byte-identical findings AND byte-identical
// SARIF output to a cold scan of the touched plugin. Any divergence
// means a stale summary or finding was silently reused.
func TestDifferentialColdVsWarmCorpus(t *testing.T) {
	c2012, c2014 := corpus.MustGenerate()
	targets := append(append([]*analyzer.Target{}, c2012.Targets...), c2014.Targets...)

	for i, target := range targets {
		target := target
		t.Run(fmt.Sprintf("%02d_%s", i, target.Name), func(t *testing.T) {
			t.Parallel()
			eng := testEngine(t)
			store := memStore(t, nil)
			inc := New(eng, store, "diff-test", nil)

			// Populate the store from the original plugin version.
			if _, _, err := inc.Analyze(context.Background(), target, nil); err != nil {
				t.Fatalf("baseline scan: %v", err)
			}

			// Touch one file — the canonical new-plugin-version edit.
			dirty := Touch(target, len(target.Files)/2, 1)

			warm, rep, err := inc.Analyze(context.Background(), dirty, nil)
			if err != nil {
				t.Fatalf("warm scan: %v", err)
			}
			cold, err := eng.AnalyzeContext(context.Background(), dirty, nil)
			if err != nil {
				t.Fatalf("cold scan: %v", err)
			}

			warmJSON, err := json.Marshal(warm)
			if err != nil {
				t.Fatal(err)
			}
			coldJSON, err := json.Marshal(cold)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(warmJSON, coldJSON) {
				t.Errorf("findings diverge (reused %d/%d files)",
					rep.ReusedFiles, rep.TotalFiles)
				logFirstDiff(t, warm, cold)
			}

			warmSARIF, err := report.SARIF(warm)
			if err != nil {
				t.Fatal(err)
			}
			coldSARIF, err := report.SARIF(cold)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(warmSARIF, coldSARIF) {
				t.Error("SARIF output diverges between warm and cold scan")
			}
		})
	}
}

// logFirstDiff points at the first finding-level divergence to keep
// failure output readable on large plugins.
func logFirstDiff(t *testing.T, warm, cold *analyzer.Result) {
	t.Helper()
	n := len(warm.Findings)
	if len(cold.Findings) < n {
		n = len(cold.Findings)
	}
	for i := 0; i < n; i++ {
		w, _ := json.Marshal(warm.Findings[i])
		c, _ := json.Marshal(cold.Findings[i])
		if !bytes.Equal(w, c) {
			t.Logf("finding %d:\n  warm: %s\n  cold: %s", i, w, c)
			return
		}
	}
	t.Logf("finding counts differ: warm=%d cold=%d", len(warm.Findings), len(cold.Findings))
}
