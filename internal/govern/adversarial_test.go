// Adversarial suite: every fixture under testdata is a pathological
// input (hostile nesting, include cycles, megabyte inline HTML, broken
// heredocs, absurd arity) and every engine must survive all of them —
// no escaped panics, partial results labelled, cancellation bounded.
//
// These tests mutate the package-level govern.FaultHookForTesting seam
// and measure goroutine-visible latencies, so none of them call
// t.Parallel.
package govern_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/govern"
	"repro/internal/pixy"
	"repro/internal/rips"
	"repro/internal/rulepack"
	"repro/internal/taint"
)

// engines returns fresh instances of the three real engines; fresh per
// test so recorded state never crosses tests.
func engines() []analyzer.Analyzer {
	return []analyzer.Analyzer{
		taint.New(rulepack.MustCompile("wordpress"), taint.DefaultOptions()),
		rips.New(rulepack.MustCompile("generic")),
		pixy.New(),
	}
}

// loadFixture reads one testdata file into a SourceFile.
func loadFixture(t *testing.T, name string) analyzer.SourceFile {
	t.Helper()
	content, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return analyzer.SourceFile{Path: name, Content: string(content)}
}

// fixtureTargets groups the fixture pack into analyzable targets; the
// mutually-including pair travels together so the cycle is reachable.
func fixtureTargets(t *testing.T) []*analyzer.Target {
	t.Helper()
	return []*analyzer.Target{
		{Name: "adv-deep-nesting", Files: []analyzer.SourceFile{loadFixture(t, "deep_nesting.php")}},
		{Name: "adv-include-cycle", Files: []analyzer.SourceFile{
			loadFixture(t, "include_cycle_a.php"),
			loadFixture(t, "include_cycle_b.php"),
		}},
		{Name: "adv-giant-html", Files: []analyzer.SourceFile{loadFixture(t, "giant_inline_html.php")}},
		{Name: "adv-heredoc", Files: []analyzer.SourceFile{loadFixture(t, "unterminated_heredoc.php")}},
		{Name: "adv-wide-call", Files: []analyzer.SourceFile{loadFixture(t, "wide_call.php")}},
	}
}

// TestAdversarialFixturesComplete runs every engine over every fixture
// under realistic budgets. The scan must settle: non-nil result, no
// error (nothing cancels it), and any degradation labelled — a
// Truncated result names its dimensions, a crashed file names its
// failure.
func TestAdversarialFixturesComplete(t *testing.T) {
	opts := &analyzer.ScanOptions{
		Deadline:      20 * time.Second,
		MaxParseDepth: 128,
		FileTimeSlice: 10 * time.Second,
	}
	for _, target := range fixtureTargets(t) {
		for _, eng := range engines() {
			t.Run(fmt.Sprintf("%s/%s", target.Name, eng.Name()), func(t *testing.T) {
				res, err := eng.AnalyzeContext(context.Background(), target, opts)
				if err != nil {
					t.Fatalf("scan errored (only cancellation may): %v", err)
				}
				if res == nil {
					t.Fatal("nil result from a completed scan")
				}
				if res.Truncated && len(res.TruncatedBy) == 0 {
					t.Error("Truncated result does not name a dimension")
				}
				if !res.Truncated && len(res.TruncatedBy) > 0 {
					t.Errorf("un-truncated result carries dimensions %v", res.TruncatedBy)
				}
				for _, rf := range res.RobustnessFailures {
					if rf.File == "" || rf.Reason == "" {
						t.Errorf("unlabelled robustness failure: %+v", rf)
					}
				}
			})
		}
	}
}

// TestTinyBudgetsTruncateNotCrash starves the richest engine of steps
// on the largest fixtures: the scan must come back as a labelled
// partial result, never an error or a panic.
func TestTinyBudgetsTruncateNotCrash(t *testing.T) {
	target := &analyzer.Target{Name: "adv-starved", Files: []analyzer.SourceFile{
		loadFixture(t, "giant_inline_html.php"),
		loadFixture(t, "wide_call.php"),
	}}
	eng := taint.New(rulepack.MustCompile("wordpress"), taint.DefaultOptions())
	opts := &analyzer.ScanOptions{MaxSteps: 300, MaxParseDepth: 64}
	res, err := eng.AnalyzeContext(context.Background(), target, opts)
	if err != nil {
		t.Fatalf("budget exhaustion must not be an error: %v", err)
	}
	if res == nil || !res.Truncated {
		t.Fatalf("starved scan not flagged Truncated: %+v", res)
	}
	found := false
	for _, dim := range res.TruncatedBy {
		if dim == govern.DimSteps {
			found = true
		}
	}
	if !found {
		t.Errorf("TruncatedBy = %v, want %q", res.TruncatedBy, govern.DimSteps)
	}
}

// TestCancellationBounded cancels a scan of a deliberately heavy target
// mid-flight and requires the engine to surface the cancellation within
// a generous multiple of the checkpoint interval — seconds, not the
// minutes the full scan would take.
func TestCancellationBounded(t *testing.T) {
	giant := loadFixture(t, "giant_inline_html.php")
	eng := taint.New(rulepack.MustCompile("wordpress"), taint.DefaultOptions())

	// A fast machine can finish the whole target before a fixed sleep
	// elapses, which proves nothing either way; grow the target until
	// the cancellation actually lands mid-flight.
	for copies := 25; ; copies *= 4 {
		target := &analyzer.Target{Name: "adv-cancel"}
		for i := 0; i < copies; i++ {
			target.Files = append(target.Files, analyzer.SourceFile{
				Path:    fmt.Sprintf("copy_%03d.php", i),
				Content: giant.Content,
			})
		}
		ctx, cancel := context.WithCancel(context.Background())

		type outcome struct {
			res     *analyzer.Result
			err     error
			settled time.Time
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := eng.AnalyzeContext(ctx, target, nil)
			done <- outcome{res, err, time.Now()}
		}()

		time.Sleep(25 * time.Millisecond)
		cancelled := time.Now()
		cancel()

		select {
		case out := <-done:
			if out.err == nil && copies < 1600 {
				// The scan outran the cancel; try a heavier target.
				continue
			}
			if !errors.Is(out.err, context.Canceled) {
				t.Fatalf("err = %v (copies=%d), want wrapped context.Canceled", out.err, copies)
			}
			if out.res == nil {
				t.Error("cancelled scan dropped its partial result")
			}
			if lag := out.settled.Sub(cancelled); lag > 5*time.Second {
				t.Errorf("cancellation took %v to surface", lag)
			}
			return
		case <-time.After(30 * time.Second):
			t.Fatal("cancelled scan never returned")
		}
	}
}

// TestFaultInjectionScanSurvives crashes a real engine on one chosen
// file via the govern.FaultHookForTesting seam and checks the blast
// radius: that file becomes a RobustnessFailure, every other file is
// still analyzed, and the scan settles without error.
func TestFaultInjectionScanSurvives(t *testing.T) {
	const victim = "include_cycle_b.php"
	govern.FaultHookForTesting = func(file string) {
		if strings.HasSuffix(file, victim) {
			panic("injected engine crash")
		}
	}
	defer func() { govern.FaultHookForTesting = nil }()

	target := &analyzer.Target{Name: "adv-fault", Files: []analyzer.SourceFile{
		loadFixture(t, "include_cycle_a.php"),
		loadFixture(t, "include_cycle_b.php"),
	}}
	for _, eng := range engines() {
		t.Run(eng.Name(), func(t *testing.T) {
			res, err := eng.AnalyzeContext(context.Background(), target, nil)
			if err != nil {
				t.Fatalf("injected crash escalated to a scan error: %v", err)
			}
			if res == nil {
				t.Fatal("nil result")
			}
			crashed := false
			for _, rf := range res.RobustnessFailures {
				if strings.HasSuffix(rf.File, victim) && strings.Contains(rf.Reason, "injected engine crash") {
					crashed = true
				}
			}
			if !crashed {
				t.Errorf("injected crash not recorded: %+v", res.RobustnessFailures)
			}
			for _, f := range res.FilesFailed {
				if !strings.HasSuffix(f, victim) {
					t.Errorf("healthy file %s failed", f)
				}
			}
		})
	}
}
