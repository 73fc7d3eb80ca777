package fleet

// Lineage routing and the result long-poll: a plugin's history stays on
// the worker that holds its incremental artifacts, unnamed uploads
// spread by content, and a coordinator-side cancellation reaches the
// worker scan while the long-poll is open.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/incremental"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/scancache"
	"repro/internal/server"
)

// newIncWorker boots a worker with an incremental store.
func newIncWorker(t *testing.T, mutate func(*server.Config)) *httptest.Server {
	t.Helper()
	rec := obs.NewRecorder()
	store, err := incremental.NewStore("", rec)
	if err != nil {
		t.Fatal(err)
	}
	pool := jobs.New(jobs.Config{Workers: 2, QueueSize: 32, Recorder: rec})
	wk := NewWorker(WorkerConfig{})
	cfg := server.Config{
		Pool:     pool,
		Cache:    scancache.New(1<<20, rec),
		Recorder: rec,
		IncStore: store,
		Retry:    jobs.RetryPolicy{MaxAttempts: 1},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	api := server.New(cfg)
	wk.Bind(api, pool)
	ts := httptest.NewServer(wk.Handler())
	t.Cleanup(func() {
		api.StartDrain()
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		pool.Shutdown(ctx)
	})
	return ts
}

// submitFiles posts a file map under name ("" submits it unnamed) and
// waits for the scan to settle done.
func submitFiles(t *testing.T, base, name string, files map[string]string) scanView {
	t.Helper()
	body := map[string]any{"files": files}
	if name != "" {
		body["name"] = name
	}
	raw, _ := json.Marshal(body)
	resp, err := http.Post(base+"/v1/scans", "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	var sc scanView
	err = json.NewDecoder(resp.Body).Decode(&sc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	v := waitSettled(t, base, sc.ID)
	if v.Status != "done" {
		t.Fatalf("scan %s of %q = %s (%s), want done", sc.ID, name, v.Status, v.Error)
	}
	return v
}

// pluginVersion renders version step (0, 1, 2) of plugin name: three
// independent files, step 1 edits the first and step 2 the second.
func pluginVersion(name string, step int) map[string]string {
	base := incremental.SyntheticTarget(3)
	for i := 1; i <= step; i++ {
		base = incremental.Touch(base, i-1, i)
	}
	files := make(map[string]string, len(base.Files))
	for _, f := range base.Files {
		files[f.Path] = f.Content + "// " + name + "\n"
	}
	return files
}

// TestLineageRoutingKeepsHistoryOnOneWorker: on two workers, every
// step of each plugin's three-version history runs on one worker, the
// later steps reuse the earlier steps' artifacts, and distinct plugins
// spread over both workers.
func TestLineageRoutingKeepsHistoryOnOneWorker(t *testing.T) {
	t.Parallel()
	w1, w2 := newIncWorker(t, nil), newIncWorker(t, nil)
	coord, _, _ := newCoordinator(t, []string{w1.URL, w2.URL})

	used := map[string]int{}
	for p := 0; p < 16; p++ {
		name := fmt.Sprintf("plugin-%02d", p)
		home := ""
		for step := 0; step < 3; step++ {
			v := submitFiles(t, coord.URL, name, pluginVersion(name, step))
			if home == "" {
				home = v.Worker
			}
			if v.Worker != home {
				t.Errorf("%s step %d ran on %s, step 0 on %s", name, step, v.Worker, home)
			}
			if step > 0 && (v.Inc == nil || v.Inc.ReusedFiles == 0) {
				t.Errorf("%s step %d reused nothing: %+v", name, step, v.Inc)
			}
		}
		used[home]++
	}
	if len(used) != 2 {
		t.Errorf("16 plugins ran on %d worker(s) %v, want both", len(used), used)
	}
}

// TestUnnamedUploadsSpreadByContent: submissions without a name have no
// lineage, so they route by content digest and spread over both
// workers instead of piling onto the owner of one shared key.
func TestUnnamedUploadsSpreadByContent(t *testing.T) {
	t.Parallel()
	w1, w2 := newIncWorker(t, nil), newIncWorker(t, nil)
	coord, _, _ := newCoordinator(t, []string{w1.URL, w2.URL})

	used := map[string]int{}
	for i := 0; i < 16; i++ {
		v := submitFiles(t, coord.URL, "", map[string]string{
			"anon.php": fmt.Sprintf("%s// upload %d\n", vulnerablePHP, i),
		})
		used[v.Worker]++
	}
	if len(used) != 2 {
		t.Errorf("16 unnamed uploads ran on %d worker(s) %v, want both", len(used), used)
	}
}

// parkedAnalyzer runs until its scan is cancelled.
type parkedAnalyzer struct{}

func (parkedAnalyzer) Name() string { return "parked" }

func (parkedAnalyzer) AnalyzeContext(ctx context.Context, t *analyzer.Target, _ *analyzer.ScanOptions) (*analyzer.Result, error) {
	<-ctx.Done()
	return &analyzer.Result{Tool: "parked", Target: t.Name}, ctx.Err()
}

// withParkedEngine makes a worker's scans run until cancelled.
func withParkedEngine(cfg *server.Config) {
	cfg.BuildTool = func(_, _ string, _ *obs.Recorder) (analyzer.Analyzer, error) {
		return parkedAnalyzer{}, nil
	}
}

// workerScanOf waits until worker holds coordinator scan coordID,
// which it names by the coordinator's id, and returns that id.
func workerScanOf(t *testing.T, worker, coordID string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(worker + "/v1/scans/" + coordID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return coordID
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("worker %s never held scan %s", worker, coordID)
	return ""
}

// waitWorkerCancelled fails unless the worker scan settles cancelled.
func waitWorkerCancelled(t *testing.T, worker, id string) {
	t.Helper()
	resp, err := http.Get(worker + "/v1/scans/" + id + "?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v scanView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Status != "cancelled" {
		t.Fatalf("worker scan %s = %s, want cancelled", id, v.Status)
	}
}

// TestCancelReachesWorkerDuringLongPoll: cancelling the coordinator
// scan while its dispatch is parked in the worker long-poll cancels the
// worker scan.
func TestCancelReachesWorkerDuringLongPoll(t *testing.T) {
	t.Parallel()
	w := newIncWorker(t, withParkedEngine)
	coord, _, _ := newCoordinator(t, []string{w.URL})

	sc := submitScan(t, coord.URL, "parked", vulnerablePHP)
	wid := workerScanOf(t, w.URL, sc.ID)
	time.Sleep(50 * time.Millisecond) // the 202 is answered; the long-poll is open
	resp, err := http.Post(coord.URL+"/v1/scans/"+sc.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = HTTP %d, want 202", resp.StatusCode)
	}
	if got := waitSettled(t, coord.URL, sc.ID); got.Status != "cancelled" {
		t.Fatalf("coordinator scan = %s, want cancelled", got.Status)
	}
	waitWorkerCancelled(t, w.URL, wid)
}

// TestHedgeLoserCancelledDuringLongPoll: the losing branch of a hedge
// is parked in its worker long-poll when the other branch wins; its
// worker scan is cancelled.
func TestHedgeLoserCancelledDuringLongPoll(t *testing.T) {
	t.Parallel()
	parked := newIncWorker(t, withParkedEngine)
	fast, _ := newFullWorker(t, slowDispatch(100*time.Millisecond))
	coord, _ := newHedgeCoordinator(t, []string{parked.URL, fast.URL}, time.Nanosecond)

	for _, name := range []string{"hedge-a", "hedge-b"} {
		sc := submitScan(t, coord.URL, name, vulnerablePHP+"// "+name+"\n")
		wid := workerScanOf(t, parked.URL, sc.ID)
		if got := waitSettled(t, coord.URL, sc.ID); got.Status != "done" || got.Worker != fast.URL {
			t.Fatalf("%s = %s on %s, want done on the fast worker", name, got.Status, got.Worker)
		}
		waitWorkerCancelled(t, parked.URL, wid)
	}
}
