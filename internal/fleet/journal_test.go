package fleet

// A journaled worker is a journaled daemon: its scans carry the
// coordinator's scan ids, and a restart replays them through
// server.Replay like any other scan.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/durable"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/scancache"
	"repro/internal/server"
)

// dispatch posts req to a worker's dispatch endpoint and decodes the
// answer.
func dispatch(t *testing.T, url string, req *server.DispatchRequest) (status int, view scanView) {
	t.Helper()
	body, err := encodeDispatch(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/internal/v1/scan", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, view
}

// copyDir copies a journal directory's files, freezing a crashed
// process's journal as it stood.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// countingAnalyzer counts the scans it runs.
type countingAnalyzer struct{ runs *atomic.Int64 }

func (countingAnalyzer) Name() string { return "counting" }

func (c countingAnalyzer) AnalyzeContext(_ context.Context, t *analyzer.Target, _ *analyzer.ScanOptions) (*analyzer.Result, error) {
	c.runs.Add(1)
	return &analyzer.Result{Tool: "counting", Target: t.Name, FilesAnalyzed: len(t.Files), Findings: []analyzer.Finding{}}, nil
}

// journaledWorker is one worker process booted on a journal directory
// as phpsafed -role=worker -journal DIR boots: one pool slot, the
// journal in server.Config.Journal, replayed before it serves.
type journaledWorker struct {
	url  string
	api  *server.Server
	pool *jobs.Pool
	jrnl *durable.Journal
	rec  *obs.Recorder
	runs atomic.Int64
	// resubmitted and rehydrated are what the boot's replay reported.
	resubmitted, rehydrated int
	// unpark releases the pool slot park occupied.
	unpark chan struct{}
}

// bootJournaledWorker boots a worker on dir. With park set, its pool
// slot is occupied before the replay, so replayed and newly dispatched
// scans stay queued until unpark is closed.
func bootJournaledWorker(t *testing.T, dir string, park bool) *journaledWorker {
	t.Helper()
	w := &journaledWorker{rec: obs.NewRecorder(), unpark: make(chan struct{})}
	jrnl, records, err := durable.Open(dir, durable.Options{Recorder: w.rec, Logger: quietTestLogger()})
	if err != nil {
		t.Fatal(err)
	}
	w.jrnl = jrnl
	w.pool = jobs.New(jobs.Config{Workers: 1, QueueSize: 16, Recorder: w.rec})
	w.api = server.New(server.Config{
		Pool: w.pool, Cache: scancache.New(1<<20, w.rec), Recorder: w.rec,
		Retry: jobs.RetryPolicy{MaxAttempts: 1}, Journal: jrnl,
		BuildTool: func(_, _ string, _ *obs.Recorder) (analyzer.Analyzer, error) {
			return countingAnalyzer{runs: &w.runs}, nil
		},
	})
	if park {
		w.park(t)
	}
	w.resubmitted, w.rehydrated, _ = w.api.Replay(records)
	wk := NewWorker(WorkerConfig{})
	wk.Bind(w.api, w.pool)
	ts := httptest.NewServer(wk.Handler())
	w.url = ts.URL
	t.Cleanup(func() {
		ts.Close()
		w.stop(t)
	})
	return w
}

// park occupies the worker's only pool slot until unpark is closed. It
// returns once the slot is held, so every scan that ran before has
// finished, its journal records included.
func (w *journaledWorker) park(t *testing.T) {
	t.Helper()
	held := make(chan struct{})
	if err := w.pool.Submit(func(context.Context) { close(held); <-w.unpark }); err != nil {
		t.Fatal(err)
	}
	<-held
}

// stop drains the worker (the scans it runs finish and journal) and
// closes its journal. Safe to call twice.
func (w *journaledWorker) stop(t *testing.T) {
	t.Helper()
	select {
	case <-w.unpark:
	default:
		close(w.unpark)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.pool.Shutdown(ctx)
	w.jrnl.Close()
}

// TestWorkerRestartReplaysUnderCoordinatorID: a worker killed with one
// dispatch settled and one still queued restarts on its journal and
// recovers both under the coordinator's ids, as a standalone daemon
// recovers its scans. The settled one is rehydrated, not run again; the
// open one is resubmitted, and a re-dispatch of it during the replay
// joins it, so the engine runs it once; a second restart replays
// nothing.
func TestWorkerRestartReplaysUnderCoordinatorID(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	settledReq := request("coord-settled", "settled", "index.php", vulnerablePHP)
	openReq := request("coord-open", "open", "index.php", vulnerablePHP+"// open\n")

	w1 := bootJournaledWorker(t, dir, false)
	if status, view := dispatch(t, w1.url, settledReq); status != http.StatusAccepted || view.ID != "coord-settled" {
		t.Fatalf("dispatch = HTTP %d scan %q, want 202 under the coordinator's id", status, view.ID)
	}
	settled := waitSettled(t, w1.url, "coord-settled")
	if settled.Status != "done" {
		t.Fatalf("coord-settled = %s (%s), want done", settled.Status, settled.Error)
	}
	w1.park(t)
	if status, view := dispatch(t, w1.url, openReq); status != http.StatusAccepted || view.Status != "queued" {
		t.Fatalf("dispatch = HTTP %d %s, want 202 queued", status, view.Status)
	}
	// Kill: freeze the journal with coord-open still queued.
	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	w1.stop(t)

	w2 := bootJournaledWorker(t, crashed, true)
	if w2.resubmitted != 1 || w2.rehydrated != 1 {
		t.Fatalf("replay resubmitted %d and rehydrated %d, want 1 and 1", w2.resubmitted, w2.rehydrated)
	}
	if got := waitSettled(t, w2.url, "coord-settled"); got.Status != "done" || !bytes.Equal(got.Result, settled.Result) {
		t.Errorf("rehydrated coord-settled = %s %s, want done %s", got.Status, got.Result, settled.Result)
	}
	if status, view := dispatch(t, w2.url, settledReq); status != http.StatusOK || view.ID != "coord-settled" {
		t.Errorf("re-dispatch of the settled scan = HTTP %d scan %q, want 200 from coord-settled", status, view.ID)
	}
	if status, view := dispatch(t, w2.url, openReq); status != http.StatusAccepted || view.ID != "coord-open" {
		t.Errorf("re-dispatch during replay = HTTP %d scan %q, want 202 joining coord-open", status, view.ID)
	}
	close(w2.unpark)
	if got := waitSettled(t, w2.url, "coord-open"); got.Status != "done" {
		t.Fatalf("replayed coord-open = %s (%s), want done", got.Status, got.Error)
	}
	w2.stop(t)
	if got := w2.runs.Load(); got != 1 {
		t.Errorf("the restarted worker ran the engine %d times, want 1 (coord-open once)", got)
	}
	if got := w2.rec.Counter("scans_accepted_total").Value(); got != 0 {
		t.Errorf("scans_accepted_total = %d, want 0 (the re-dispatches joined or were answered)", got)
	}

	w3 := bootJournaledWorker(t, crashed, false)
	if w3.resubmitted != 0 || w3.rehydrated != 2 {
		t.Errorf("second restart resubmitted %d and rehydrated %d, want 0 and 2", w3.resubmitted, w3.rehydrated)
	}
}

// TestWorkerRestartOnDispatchJournal: a worker journal written before
// workers kept a scan journal holds dispatch records, in its snapshot
// and in its WAL, and the blobs they named. A worker boots on it: the
// replay ignores those lines, they count as garbage, and the first
// compaction drops them. A coordinator scan carrying the id of the
// dispatch the old journal left open settles done exactly once.
func TestWorkerRestartOnDispatchJournal(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	content := vulnerablePHP + "// compat\n"
	hash := analyzer.HashContent(content)
	payload := func(id string) json.RawMessage {
		raw, _ := json.Marshal(map[string]any{
			"scan_id": id, "attempt": 1, "name": "compat", "tool": "phpsafe", "profile": "wordpress",
			"files": []map[string]string{{"path": "index.php", "hash": hash}},
		})
		return raw
	}
	old, _, err := durable.Open(dir, durable.Options{Logger: quietTestLogger()})
	if err != nil {
		t.Fatal(err)
	}
	// The old worker's last compaction, then its WAL.
	if err := old.Compact([]durable.Record{
		{Type: durable.RecBlob, Hash: hash, Blob: []byte(content)},
		{Type: "dispatch_started", ScanID: "compat-done", Attempt: 1, Refs: []string{hash}, Payload: payload("compat-done")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := old.Append(
		durable.Record{Type: "dispatch_settled", ScanID: "compat-done", Payload: json.RawMessage(`{"state":"done"}`)},
		durable.Record{Type: "dispatch_started", ScanID: "compat-open", Attempt: 1, Refs: []string{hash}, Payload: payload("compat-open")},
	); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	w := bootJournaledWorker(t, dir, false)
	if w.resubmitted+w.rehydrated != 0 {
		t.Fatalf("replay of the dispatch journal resubmitted %d and rehydrated %d, want nothing", w.resubmitted, w.rehydrated)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	meta := int64(bytes.IndexByte(snap, '\n') + 1)
	if u := w.jrnl.Usage(); u.LiveBytes != meta || !w.jrnl.NeedsCompaction(0) {
		t.Errorf("usage %+v: want only the %d-byte snapshot header live, the dispatch lines and their blob garbage", u, meta)
	}

	coord, _, rec := newCoordinator(t, []string{w.url}, func(cfg *server.Config) {
		cfg.NewID = func() string { return "compat-open" }
	})
	sc := submitScan(t, coord.URL, "compat", content)
	if got := waitSettled(t, coord.URL, sc.ID); got.Status != "done" || got.Worker != w.url {
		t.Fatalf("coordinator scan %s = %s on %q (%s), want done on the worker", sc.ID, got.Status, got.Worker, got.Error)
	}
	settles := 0
	for _, ev := range rec.Events().ForScan("compat-open") {
		if ev.Type == "settled" {
			settles++
		}
	}
	if settles != 1 || w.runs.Load() != 1 {
		t.Errorf("compat-open settled %d times, ran %d times, want once each", settles, w.runs.Load())
	}

	w.api.CompactJournal()
	for _, name := range []string{"snapshot.jsonl", "wal.jsonl"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), `"dispatch_`) {
			t.Errorf("%s still holds dispatch records after compaction:\n%s", name, data)
		}
	}
	if u := w.jrnl.Usage(); u.GarbageBytes != 0 {
		t.Errorf("garbage after compaction = %d bytes, want 0", u.GarbageBytes)
	}
}
