package repro

// End-to-end guarantees of the intra-scan parallel pipeline: the
// FileWorkers knob changes wall-clock behavior only, never output.
// Every engine × pack-set combination must render byte-identical JSON
// and SARIF whether the per-file stages run serially or on a saturated
// worker pool, failures injected into parallel workers must accumulate
// deterministically, and a mid-pipeline cancellation must settle inside
// the same bounds the serial degradation ladder guarantees.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/govern"
	"repro/internal/report"
)

// renderScan runs one engine over one target at the given worker count
// and renders both interchange formats.
func renderScan(t *testing.T, eng analyzer.Analyzer, target *analyzer.Target, workers int) (jsonBytes, sarifBytes []byte) {
	t.Helper()
	opts := &analyzer.ScanOptions{FileWorkers: workers}
	res, err := eng.AnalyzeContext(context.Background(), target, opts)
	if err != nil {
		t.Fatalf("%s/%s workers=%d: %v", eng.Name(), target.Name, workers, err)
	}
	jsonBytes, err = json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sarifBytes, err = report.SARIF(res)
	if err != nil {
		t.Fatal(err)
	}
	return jsonBytes, sarifBytes
}

// TestFileWorkersDifferential sweeps the full 2014 corpus through every
// engine and pack set at FileWorkers=1 and FileWorkers=8 and requires
// byte-identical JSON and SARIF from both runs. This is the pipeline's
// core contract: worker count is a throughput knob, not a semantic one.
func TestFileWorkersDifferential(t *testing.T) {
	t.Parallel()
	_, c14 := corpus.MustGenerate()

	configs := []struct{ tool, packs string }{
		{"phpsafe", "wordpress"},
		{"phpsafe", "generic"},
		{"phpsafe", "wordpress,security-extended"},
		{"rips", "wordpress"},
		{"rips", "generic"},
		{"rips", "wordpress,security-extended"},
		{"pixy", "wordpress"}, // pixy ignores packs; included for the CLI surface
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.tool+"/"+cfg.packs, func(t *testing.T) {
			t.Parallel()
			serialEng, err := eval.BuildTool(cfg.tool, cfg.packs, eval.ToolOptions{})
			if err != nil {
				t.Fatal(err)
			}
			parallelEng, err := eval.BuildTool(cfg.tool, cfg.packs, eval.ToolOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, target := range c14.Targets {
				serialJSON, serialSARIF := renderScan(t, serialEng, target, 1)
				parallelJSON, parallelSARIF := renderScan(t, parallelEng, target, 8)
				if !bytes.Equal(serialJSON, parallelJSON) {
					t.Errorf("%s: JSON differs between FileWorkers=1 and FileWorkers=8\nserial:   %s\nparallel: %s",
						target.Name, serialJSON, parallelJSON)
				}
				if !bytes.Equal(serialSARIF, parallelSARIF) {
					t.Errorf("%s: SARIF differs between FileWorkers=1 and FileWorkers=8", target.Name)
				}
			}
		})
	}
}

// TestParallelFaultDeterminism injects crashes into two files of one
// plugin and re-runs the scan on a saturated pool twenty times per
// engine: the rendered JSON — including the ordering of FilesFailed,
// Errors and RobustnessFailures — must be identical on every run, no
// matter which workers hit the faults or in what order. Run under
// -race this also proves the per-file failure accumulation is
// race-clean.
func TestParallelFaultDeterminism(t *testing.T) {
	// Deliberately not parallel: the fault hook is a process-wide seam.
	// Both victims are procedural files every engine analyzes (Pixy
	// skips class-bearing files before the fault seam fires).
	victims := map[string]bool{"ajax.php": true, "templates/display.php": true}
	govern.FaultHookForTesting = func(file string) {
		if victims[file] {
			panic("injected parallel fault")
		}
	}
	defer func() { govern.FaultHookForTesting = nil }()

	_, c14 := corpus.MustGenerate()
	target := c14.Target("mail-subscribe-list")
	if target == nil {
		t.Fatal("plugin missing from corpus")
	}

	for _, eng := range eval.Tools(nil) {
		eng := eng
		t.Run(eng.Name(), func(t *testing.T) {
			var first []byte
			for run := 0; run < 20; run++ {
				res, err := eng.AnalyzeContext(context.Background(), target,
					&analyzer.ScanOptions{FileWorkers: 8})
				if err != nil {
					t.Fatalf("run %d: injected crash escalated to a scan error: %v", run, err)
				}
				if len(res.RobustnessFailures) != 2 {
					t.Fatalf("run %d: %d robustness failures, want 2 (%+v)",
						run, len(res.RobustnessFailures), res.RobustnessFailures)
				}
				got, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = got
					continue
				}
				if !bytes.Equal(first, got) {
					t.Fatalf("run %d JSON differs from run 0\nrun 0: %s\nrun %d: %s",
						run, first, run, got)
				}
			}
		})
	}
}

// TestParallelCancellationBounded cancels a saturated-pool scan of a
// deliberately heavy target mid-pipeline and requires the same
// settlement contract the serial degradation ladder guarantees: a
// wrapped context.Canceled, a preserved partial result, and a bounded
// settle time — the pool must not strand workers past the checkpoint
// cadence.
func TestParallelCancellationBounded(t *testing.T) {
	t.Parallel()
	content, err := os.ReadFile(filepath.Join("internal", "govern", "testdata", "giant_inline_html.php"))
	if err != nil {
		t.Fatal(err)
	}

	for _, engName := range []string{"phpsafe", "rips", "pixy"} {
		engName := engName
		t.Run(engName, func(t *testing.T) {
			t.Parallel()
			eng, err := eval.BuildTool(engName, "wordpress", eval.ToolOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// A fast machine can finish the whole scan before the cancel
			// lands, which proves nothing; grow the target until the
			// cancellation arrives mid-pipeline.
			for copies := 25; ; copies *= 4 {
				target := &analyzer.Target{Name: "parallel-cancel"}
				for i := 0; i < copies; i++ {
					target.Files = append(target.Files, analyzer.SourceFile{
						Path:    fmt.Sprintf("copy_%03d.php", i),
						Content: string(content),
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
					res, err := eng.AnalyzeContext(ctx, target,
						&analyzer.ScanOptions{FileWorkers: 8})
					done <- outcome{res, err, time.Now()}
				}()

				time.Sleep(25 * time.Millisecond)
				cancelled := time.Now()
				cancel()

				select {
				case out := <-done:
					if out.err == nil && copies < 1600 {
						continue // the scan outran the cancel; heavier target
					}
					if !errors.Is(out.err, context.Canceled) {
						t.Fatalf("err = %v (copies=%d), want wrapped context.Canceled", out.err, copies)
					}
					if out.res == nil {
						t.Error("cancelled parallel scan dropped its partial result")
					}
					if lag := out.settled.Sub(cancelled); lag > 5*time.Second {
						t.Errorf("cancellation took %v to surface", lag)
					}
					return
				case <-time.After(30 * time.Second):
					t.Fatal("cancelled parallel scan never returned")
				}
			}
		})
	}
}
