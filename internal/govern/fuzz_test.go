package govern_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/rulepack"
	"repro/internal/taint"
)

// FuzzGovernedAnalyze throws mutated PHP source at the richest engine
// under tiny budgets. The governance contract under fuzzing is simple:
// whatever the input, AnalyzeContext returns — no panic escapes, and a
// nil error always carries a result.
func FuzzGovernedAnalyze(f *testing.F) {
	f.Add("<?php echo $_GET['a']; ?>")
	f.Add("<?php $a = array(1, 2, 3); foreach ($a as $v) { echo $v; }")
	f.Add("<?php function f($x) { return f($x . 'y'); } f('z');")
	f.Add(`<?php $s = <<<EOT
	unterminated`)
	f.Add("<?php if (1) { if (2) { if (3) { echo ((((($_GET['q'])))));")
	for _, name := range []string{"include_cycle_a.php", "unterminated_heredoc.php"} {
		if content, err := os.ReadFile(filepath.Join("testdata", name)); err == nil {
			f.Add(string(content))
		}
	}

	eng := taint.New(rulepack.MustCompile("wordpress"), taint.DefaultOptions())
	opts := &analyzer.ScanOptions{
		Deadline:      2 * time.Second,
		MaxSteps:      50_000,
		MaxParseDepth: 64,
		MaxFindings:   100,
	}
	f.Fuzz(func(t *testing.T, src string) {
		target := &analyzer.Target{
			Name:  "fuzz",
			Files: []analyzer.SourceFile{{Path: "fuzz.php", Content: src}},
		}
		res, err := eng.AnalyzeContext(context.Background(), target, opts)
		if err != nil {
			t.Fatalf("governed scan errored on fuzz input: %v", err)
		}
		if res == nil {
			t.Fatal("nil result with nil error")
		}
		if res.Truncated && len(res.TruncatedBy) == 0 {
			t.Error("Truncated result does not name a dimension")
		}
	})
}
