package govern

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/obs"
)

func TestNilGovernorIsNoOp(t *testing.T) {
	var g *Governor
	g.Step()
	g.CheckNow()
	g.BeginFile("a.php")
	if g.EndFile() {
		t.Error("nil governor reported a slice halt")
	}
	g.CheckFindings(1 << 30)
	g.NoteParseDepth()
	if g.Halted() || g.ScanHalted() {
		t.Error("nil governor halted")
	}
	if g.MaxParseDepth() != analyzer.DefaultMaxParseDepth {
		t.Errorf("nil MaxParseDepth = %d", g.MaxParseDepth())
	}
	if err := g.Finish(&analyzer.Result{}); err != nil {
		t.Errorf("nil Finish err = %v", err)
	}
}

func TestStepBudgetHaltsAtCheckpoint(t *testing.T) {
	rec := obs.NewRecorder()
	g := New(context.Background(), &analyzer.ScanOptions{MaxSteps: 100}, rec)
	for i := 0; i < 10_000 && !g.Halted(); i++ {
		g.Step()
	}
	if !g.ScanHalted() {
		t.Fatal("step budget never halted the scan")
	}
	// The masked gate means the halt lands on the first checkpoint at or
	// after the budget — within one interval, never unboundedly later.
	if got := g.Steps(); got > 100+checkIntervalSteps {
		t.Errorf("halted after %d steps, budget 100 (+%d checkpoint bound)", got, checkIntervalSteps)
	}
	res := &analyzer.Result{}
	if err := g.Finish(res); err != nil {
		t.Fatalf("budget exhaustion must not be an error, got %v", err)
	}
	if !res.Truncated || len(res.TruncatedBy) != 1 || res.TruncatedBy[0] != DimSteps {
		t.Errorf("result = truncated %v by %v, want steps", res.Truncated, res.TruncatedBy)
	}
	if got := rec.Snapshot().Counters["govern_truncations_total_steps"]; got != 1 {
		t.Errorf("govern_truncations_total_steps = %d, want 1", got)
	}
}

func TestDeadlineTruncates(t *testing.T) {
	g := New(context.Background(), &analyzer.ScanOptions{Deadline: time.Millisecond}, nil)
	time.Sleep(5 * time.Millisecond)
	g.CheckNow()
	if !g.ScanHalted() {
		t.Fatal("expired deadline did not halt")
	}
	res := &analyzer.Result{}
	if err := g.Finish(res); err != nil || !res.Truncated || res.TruncatedBy[0] != DimDeadline {
		t.Errorf("Finish = %v, truncated_by %v", err, res.TruncatedBy)
	}
}

func TestFileSliceFailsFileNotScan(t *testing.T) {
	g := New(context.Background(), &analyzer.ScanOptions{FileTimeSlice: time.Millisecond}, nil)
	g.BeginFile("slow.php")
	time.Sleep(5 * time.Millisecond)
	g.CheckNow()
	if !g.Halted() {
		t.Fatal("exceeded slice did not halt the file")
	}
	if g.ScanHalted() {
		t.Fatal("file-scoped halt must not stop the scan")
	}
	if !g.EndFile() {
		t.Fatal("EndFile did not report the exceeded slice")
	}
	if g.Halted() {
		t.Fatal("halt must clear when the sliced file ends")
	}
	res := &analyzer.Result{}
	if err := g.Finish(res); err != nil || !res.Truncated || res.TruncatedBy[0] != DimFileSlice {
		t.Errorf("Finish = %v, truncated_by %v", err, res.TruncatedBy)
	}
}

func TestFindingsBudget(t *testing.T) {
	g := New(context.Background(), &analyzer.ScanOptions{MaxFindings: 3}, nil)
	g.CheckFindings(2)
	if g.Halted() {
		t.Fatal("halted below the findings budget")
	}
	g.CheckFindings(3)
	if !g.ScanHalted() {
		t.Fatal("findings budget did not halt")
	}
}

func TestCancellationIsAnError(t *testing.T) {
	rec := obs.NewRecorder()
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, nil, rec)
	cancel()
	for i := 0; i < 2*checkIntervalSteps; i++ {
		g.Step()
	}
	if !g.ScanHalted() {
		t.Fatal("cancelled context did not halt within one checkpoint interval")
	}
	res := &analyzer.Result{}
	err := g.Finish(res)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Finish err = %v, want wrapped context.Canceled", err)
	}
	if res.Truncated {
		t.Error("cancellation must be an error, not a truncation")
	}
	if got := rec.Snapshot().Counters["govern_cancellations_total"]; got != 1 {
		t.Errorf("govern_cancellations_total = %d, want 1", got)
	}
}

func TestDimsDeduplicate(t *testing.T) {
	g := New(context.Background(), nil, nil)
	g.NoteParseDepth()
	g.NoteParseDepth()
	res := &analyzer.Result{}
	g.Finish(res)
	if len(res.TruncatedBy) != 1 {
		t.Errorf("TruncatedBy = %v, want one parse_depth entry", res.TruncatedBy)
	}
}

func TestProtectRecoversPanic(t *testing.T) {
	rec := obs.NewRecorder()
	g := New(context.Background(), nil, rec)
	res := &analyzer.Result{}
	ok := Protect(g, "crash.php", res, func() { panic("boom") })
	if ok {
		t.Fatal("Protect reported ok for a panicking fn")
	}
	if len(res.RobustnessFailures) != 1 || res.RobustnessFailures[0].File != "crash.php" ||
		!strings.Contains(res.RobustnessFailures[0].Reason, "boom") {
		t.Errorf("robustness failures = %+v", res.RobustnessFailures)
	}
	if len(res.FilesFailed) != 1 || len(res.Errors) != 1 {
		t.Errorf("failed files %v errors %v", res.FilesFailed, res.Errors)
	}
	if got := rec.Snapshot().Counters["govern_panics_recovered_total"]; got != 1 {
		t.Errorf("govern_panics_recovered_total = %d, want 1", got)
	}
	if !Protect(g, "fine.php", res, func() {}) {
		t.Error("Protect reported a panic for a clean fn")
	}
}

func TestFaultHookRunsInsideProtect(t *testing.T) {
	g := New(context.Background(), nil, nil)
	g.SetFaultHook(func(file string) {
		if file == "target.php" {
			panic("injected fault")
		}
	})
	res := &analyzer.Result{}
	if Protect(g, "target.php", res, func() { g.BeginFile("target.php") }) {
		t.Fatal("injected fault did not panic")
	}
	if len(res.RobustnessFailures) != 1 {
		t.Fatalf("injected fault not recorded: %+v", res.RobustnessFailures)
	}
	if !Protect(g, "other.php", res, func() { g.BeginFile("other.php") }) {
		t.Error("hook fired for the wrong file")
	}
}

// TestChargeMatchesSteps: charging n steps succeeds exactly when n
// Step calls from the same state would not halt on the step budget,
// and then leaves the same step count behind.
func TestChargeMatchesSteps(t *testing.T) {
	for _, max := range []int64{1, 255, 256, 257, 600, 1024} {
		for _, pre := range []int64{0, 100, 255, 256, 700} {
			for _, n := range []int64{0, 1, 156, 200, 300, 900} {
				opts := &analyzer.ScanOptions{MaxSteps: max}
				stepped := New(context.Background(), opts, nil)
				charged := New(context.Background(), opts, nil)
				for i := int64(0); i < pre; i++ {
					stepped.Step()
					charged.Step()
				}
				for i := int64(0); i < n; i++ {
					stepped.Step()
				}
				ok := charged.Charge(n)
				if want := !stepped.Halted(); ok != want {
					t.Fatalf("max %d pre %d n %d: Charge = %v, %d Steps halted = %v", max, pre, n, ok, n, !want)
				}
				if ok && charged.Steps() != stepped.Steps() {
					t.Fatalf("max %d pre %d n %d: charged %d steps, stepped %d", max, pre, n, charged.Steps(), stepped.Steps())
				}
			}
		}
	}
	var nilGov *Governor
	if !nilGov.Charge(1 << 40) {
		t.Error("nil governor refused a charge")
	}
}
