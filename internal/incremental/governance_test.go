package incremental

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/obs"
)

// nestedTarget is a two-file plugin whose deep.php echoes a GET
// parameter inside depth levels of parentheses; flat.php holds a
// shallow finding of its own.
func nestedTarget(depth int) *analyzer.Target {
	deep := "<?php echo " + strings.Repeat("(", depth) + "$_GET['q']" + strings.Repeat(")", depth) + ";\n"
	return &analyzer.Target{Name: "nested", Files: []analyzer.SourceFile{
		{Path: "deep.php", Content: deep},
		{Path: "flat.php", Content: `<?php echo $_GET['z'];`},
	}}
}

// wideTarget is a two-file plugin whose wide.php runs n statements
// before its finding: enough lexer and parser steps to cross several
// step-budget checkpoints while it parses.
func wideTarget(n int) *analyzer.Target {
	wide := "<?php\n" + strings.Repeat("$a = 1 + 2;\n", n) + "echo $_GET['w'];\n"
	return &analyzer.Target{Name: "wide", Files: []analyzer.SourceFile{
		{Path: "flat.php", Content: `<?php echo $_GET['z'];`},
		{Path: "wide.php", Content: wide},
	}}
}

// TestGovernanceDifferential holds the warm path to the cold path's
// governance: under every budget and cancellation case an incremental
// scan returns the same result as a cold AnalyzeContext of the same
// target — Truncated and TruncatedBy included — and a truncated or
// cancelled scan writes no artifact into the store, nor any AST its
// halted parse produced.
func TestGovernanceDifferential(t *testing.T) {
	depth8 := &analyzer.ScanOptions{MaxParseDepth: 8}
	// One file worker keeps the step budget's halt point deterministic.
	steps300 := &analyzer.ScanOptions{MaxSteps: 300, FileWorkers: 1}
	// Under 1450 steps SyntheticTarget(4) scans untruncated; a cold scan
	// of SyntheticTarget(8) parses clean and then halts in the analysis,
	// so a warm one would replay the first four files' artifacts.
	steps1450 := &analyzer.ScanOptions{MaxSteps: 1450, FileWorkers: 1}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name   string
		target *analyzer.Target
		// prime, when set, is scanned under primeOpts to fill the store
		// before the compared scan.
		prime     *analyzer.Target
		primeOpts *analyzer.ScanOptions
		ctx       context.Context
		opts      *analyzer.ScanOptions
		wantDim   []string
		wantErr   bool
		// newASTs is how many ASTs the compared scan caches: those of
		// files it parsed clean before a budget halted the analysis.
		newASTs int
	}{
		{name: "nested_past_default_depth", target: nestedTarget(600),
			ctx: context.Background(), wantDim: []string{"parse_depth"}},
		{name: "max_parse_depth_8", target: nestedTarget(40),
			ctx: context.Background(), opts: depth8, wantDim: []string{"parse_depth"}},
		{name: "default_then_max_parse_depth_8", target: nestedTarget(40), prime: nestedTarget(40),
			ctx: context.Background(), opts: depth8, wantDim: []string{"parse_depth"}},
		{name: "default_then_max_steps_300", target: wideTarget(200), prime: wideTarget(200),
			ctx: context.Background(), opts: steps300, wantDim: []string{"steps"}},
		{name: "synthetic_4_then_8_max_steps_1450", target: SyntheticTarget(8),
			prime: SyntheticTarget(4), primeOpts: steps1450,
			ctx: context.Background(), opts: steps1450, wantDim: []string{"steps"}, newASTs: 4},
		{name: "pre_cancelled", target: nestedTarget(40), prime: nestedTarget(40),
			ctx: cancelled, wantErr: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			eng := testEngine(t)
			rec := obs.NewRecorder()
			store := memStore(t, rec)
			inc := New(eng, store, "gov-test", rec)
			if tc.prime != nil {
				res, _, err := inc.Analyze(context.Background(), tc.prime, tc.primeOpts)
				if err != nil || res.Truncated {
					t.Fatalf("priming scan: err=%v truncated=%v", err, res.Truncated)
				}
			}
			stored := rec.Counter("inc_artifacts_stored_total").Value()
			asts := storedASTs(store)

			warm, _, warmErr := inc.Analyze(tc.ctx, tc.target, tc.opts)
			cold, coldErr := eng.AnalyzeContext(tc.ctx, tc.target, tc.opts)
			if (warmErr != nil) != tc.wantErr || (coldErr != nil) != tc.wantErr {
				t.Fatalf("errors: warm=%v cold=%v, want error=%v", warmErr, coldErr, tc.wantErr)
			}
			if got, want := resultJSON(t, warm), resultJSON(t, cold); got != want {
				t.Errorf("warm result diverges from cold:\n  warm: %s\n  cold: %s", got, want)
			}
			if !reflect.DeepEqual(cold.TruncatedBy, tc.wantDim) {
				t.Errorf("cold TruncatedBy = %v, want %v", cold.TruncatedBy, tc.wantDim)
			}
			if got := rec.Counter("inc_artifacts_stored_total").Value(); got != stored {
				t.Errorf("inc_artifacts_stored_total moved %d → %d on a governed-out scan", stored, got)
			}
			if got := storedASTs(store); got != asts+tc.newASTs {
				t.Errorf("AST cache grew %d → %d on a governed-out scan, want +%d", asts, got, tc.newASTs)
			}
		})
	}
}

// TestStepBudgetWarmMatchesCold sweeps the step budget across a scan
// whose ASTs all come from the cache: each hit is charged the steps its
// parse took, so at every budget — halting in the parse stage, in the
// analysis, or not at all — the warm result equals the cold one.
func TestStepBudgetWarmMatchesCold(t *testing.T) {
	t.Parallel()
	eng := testEngine(t)
	inc := New(eng, memStore(t, nil), "steps-test", nil)
	target := wideTarget(200)
	if _, _, err := inc.Analyze(context.Background(), target, nil); err != nil {
		t.Fatal(err)
	}
	truncated := 0
	for max := int64(1); max <= 3000; max += 97 {
		opts := &analyzer.ScanOptions{MaxSteps: max, FileWorkers: 1}
		warm, rep, err := inc.Analyze(context.Background(), target, opts)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := eng.AnalyzeContext(context.Background(), target, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resultJSON(t, warm), resultJSON(t, cold); got != want {
			t.Fatalf("MaxSteps %d: warm result diverges from cold:\n  warm: %s\n  cold: %s", max, got, want)
		}
		if rep.ReusedFiles != 0 {
			t.Fatalf("MaxSteps %d: replayed %d files across budgets", max, rep.ReusedFiles)
		}
		if cold.Truncated {
			truncated++
		}
	}
	if truncated == 0 {
		t.Fatal("no budget in the sweep truncated the scan")
	}
}

// TestStepBudgetReplayMatchesCold sweeps the step budget across a
// scan that replays half its files: artifacts made under the budget
// carry their interpreter steps, so at every budget — the replayed
// files' steps crossing it or not — the warm result equals the cold
// one, and the sweep does replay where the budget cannot bind.
func TestStepBudgetReplayMatchesCold(t *testing.T) {
	t.Parallel()
	eng := testEngine(t)
	truncated, replayed := 0, 0
	for max := int64(1200); max <= 2400; max += 13 {
		opts := &analyzer.ScanOptions{MaxSteps: max, FileWorkers: 1}
		inc := New(eng, memStore(t, nil), "replay-steps-test", nil)
		if res, _, err := inc.Analyze(context.Background(), SyntheticTarget(4), opts); err != nil || res.Truncated {
			t.Fatalf("MaxSteps %d: priming scan err=%v truncated=%v", max, err, res.Truncated)
		}
		warm, rep, err := inc.Analyze(context.Background(), SyntheticTarget(8), opts)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := eng.AnalyzeContext(context.Background(), SyntheticTarget(8), opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resultJSON(t, warm), resultJSON(t, cold); got != want {
			t.Fatalf("MaxSteps %d: warm result diverges from cold:\n  warm: %s\n  cold: %s", max, got, want)
		}
		if cold.Truncated {
			truncated++
		}
		if rep.ReusedFiles > 0 {
			replayed++
		}
	}
	if truncated == 0 || replayed == 0 {
		t.Fatalf("sweep truncated %d and replayed at %d budgets, want both > 0", truncated, replayed)
	}
}

// storedASTs reports the AST cache's size.
func storedASTs(s *Store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.asts)
}

// TestBudgetsSeparateArtifacts: artifacts made under one budget set are
// never replayed into a scan under another, while the worker count —
// which never changes output — shares them.
func TestBudgetsSeparateArtifacts(t *testing.T) {
	t.Parallel()
	eng := testEngine(t)
	inc := New(eng, memStore(t, nil), "budget-test", nil)
	base := SyntheticTarget(3)
	if _, _, err := inc.Analyze(context.Background(), base, nil); err != nil {
		t.Fatal(err)
	}
	_, rep, err := inc.Analyze(context.Background(), base, &analyzer.ScanOptions{FileWorkers: 1})
	if err != nil || rep.ReusedFiles != 3 {
		t.Fatalf("FileWorkers: 1 rescan reused %+v (err %v), want all 3", rep, err)
	}
	_, rep, err = inc.Analyze(context.Background(), base, &analyzer.ScanOptions{MaxSteps: 1 << 30})
	if err != nil || rep.ReusedFiles != 0 {
		t.Fatalf("MaxSteps rescan reused %+v (err %v), want none", rep, err)
	}
}
