package eval

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/corpus"
	"repro/internal/obs"
)

// TestParallelMatchesSerial verifies the worker-pool runner produces the
// identical detection outcome as the serial path (and, under -race,
// that the engines really are safe for concurrent use on distinct
// targets).
func TestParallelMatchesSerial(t *testing.T) {
	serial, _ := evals(t)

	c12, _ := corpus.MustGenerate()
	parallel, err := EvaluateCorpusContext(context.Background(), c12, EvalOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	for _, tm := range serial.Tools {
		pm := parallel.Tool(tm.Tool)
		if pm == nil {
			t.Fatalf("%s missing from parallel evaluation", tm.Tool)
		}
		if pm.Global.TP != tm.Global.TP || pm.Global.FP != tm.Global.FP {
			t.Errorf("%s: parallel (TP=%d FP=%d) != serial (TP=%d FP=%d)",
				tm.Tool, pm.Global.TP, pm.Global.FP, tm.Global.TP, tm.Global.FP)
		}
		if len(pm.Detected) != len(tm.Detected) {
			t.Errorf("%s: detected sets differ: %d vs %d",
				tm.Tool, len(pm.Detected), len(tm.Detected))
		}
		for id := range tm.Detected {
			if !pm.Detected[id] {
				t.Errorf("%s: parallel run missed %s", tm.Tool, id)
			}
		}
	}
}

// TestParallelWorkerDefaults checks the zero-worker default.
func TestParallelWorkerDefaults(t *testing.T) {
	c12, _ := corpus.MustGenerate()
	// Workers < 0 means GOMAXPROCS; RIPS is the cheapest tool.
	run, err := Run(context.Background(), Tools(nil)[1], c12, Options{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Results) != len(c12.Targets) {
		t.Fatalf("results = %d, want %d", len(run.Results), len(c12.Targets))
	}
	for i, res := range run.Results {
		if res == nil {
			t.Fatalf("result %d is nil", i)
		}
	}
}

// flakyTool fails on plugin names with a given prefix; everything else
// succeeds with an empty result.
type flakyTool struct {
	failPrefix string
	calls      atomic.Int64
}

func (f *flakyTool) Name() string { return "flaky" }

func (f *flakyTool) AnalyzeContext(ctx context.Context, target *analyzer.Target, _ *analyzer.ScanOptions) (*analyzer.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.calls.Add(1)
	if strings.HasPrefix(target.Name, f.failPrefix) {
		return nil, fmt.Errorf("induced failure on %s", target.Name)
	}
	return &analyzer.Result{Tool: f.Name(), Target: target.Name}, nil
}

// failCorpus builds a synthetic corpus with the given plugin names.
func failCorpus(names ...string) *corpus.Corpus {
	c := &corpus.Corpus{}
	for _, name := range names {
		c.Targets = append(c.Targets, &analyzer.Target{Name: name})
	}
	return c
}

// TestParallelJoinsAllErrors verifies the drain fix: a sweep failing on
// several plugins reports every failure (joined), not an arbitrary first
// one, and still returns the partial run with Duration set.
func TestParallelJoinsAllErrors(t *testing.T) {
	c := failCorpus("bad-one", "good-one", "bad-two", "good-two", "bad-three")
	tool := &flakyTool{failPrefix: "bad-"}

	run, err := Run(context.Background(), tool, c, Options{Workers: 3})
	if err == nil {
		t.Fatal("want error, got nil")
	}
	for _, want := range []string{"bad-one", "bad-two", "bad-three"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %s: %v", want, err)
		}
	}
	if run == nil {
		t.Fatal("partial run is nil")
	}
	if run.Duration <= 0 {
		t.Error("run.Duration not set on error return")
	}
	if got := tool.calls.Load(); got != int64(len(c.Targets)) {
		t.Errorf("analyzed %d plugins, want all %d", got, len(c.Targets))
	}
	// Successful plugins keep their slots in the partial run.
	good := 0
	for _, res := range run.Results {
		if res != nil {
			good++
		}
	}
	if good != 2 {
		t.Errorf("partial run has %d results, want 2", good)
	}
}

// TestSerialDurationOnError checks the serial path's early error return
// also stamps Duration.
func TestSerialDurationOnError(t *testing.T) {
	c := failCorpus("bad-only")
	run, err := Run(context.Background(), &flakyTool{failPrefix: "bad-"}, c, Options{})
	if err == nil {
		t.Fatal("want error, got nil")
	}
	if run == nil || run.Duration <= 0 {
		t.Fatalf("partial run missing Duration: %+v", run)
	}
}

// TestRunContextCancellation checks the single Run entry point refuses
// to analyze under a dead context: the harness pre-checks ctx before
// dispatching each plugin, so no engine work starts.
func TestRunContextCancellation(t *testing.T) {
	c := failCorpus("p1", "p2", "p3")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run, err := Run(ctx, &flakyTool{failPrefix: "none"}, c, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep err = %v, want context.Canceled", err)
	}
	if run == nil || len(run.Results) != 0 {
		t.Errorf("cancelled sweep still produced results: %+v", run)
	}
}

// TestRunProgressAndMetrics exercises the harness-level
// instrumentation: progress callbacks fire once per plugin (serially
// observable thanks to the callback mutex) and the recorder accumulates
// per-plugin spans plus queue-wait samples under the worker pool.
func TestRunProgressAndMetrics(t *testing.T) {
	c := failCorpus("p1", "p2", "p3", "p4")
	rec := obs.NewRecorder()
	seen := map[string]bool{}
	maxDone := 0
	run, err := Run(context.Background(), &flakyTool{failPrefix: "none"}, c, Options{
		Workers:  2,
		Recorder: rec,
		Progress: func(ev Progress) {
			seen[ev.Plugin] = true
			if ev.Done > maxDone {
				maxDone = ev.Done
			}
			if ev.Total != len(c.Targets) {
				t.Errorf("Total = %d, want %d", ev.Total, len(c.Targets))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(c.Targets) || maxDone != len(c.Targets) {
		t.Errorf("progress: saw %d plugins (maxDone %d), want %d", len(seen), maxDone, len(c.Targets))
	}
	if run.Duration <= 0 {
		t.Error("Duration not set")
	}
	snap := rec.Snapshot()
	if got := snap.Counters["eval_plugins_total"]; got != int64(len(c.Targets)) {
		t.Errorf("eval_plugins_total = %d, want %d", got, len(c.Targets))
	}
	if hs, ok := snap.Histograms["eval_plugin_seconds"]; !ok || hs.Count != int64(len(c.Targets)) {
		t.Errorf("eval_plugin_seconds count wrong: %+v", snap.Histograms["eval_plugin_seconds"])
	}
	if hs, ok := snap.Histograms["eval_queue_wait_seconds"]; !ok || hs.Count != int64(len(c.Targets)) {
		t.Errorf("eval_queue_wait_seconds count wrong: %+v", snap.Histograms["eval_queue_wait_seconds"])
	}
	if len(snap.Spans) != len(c.Targets) {
		t.Errorf("span roots = %d, want %d", len(snap.Spans), len(c.Targets))
	}
}
