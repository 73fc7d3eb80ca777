package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/scancache"
	"repro/internal/server"
)

// dispatch posts req to a worker's dispatch endpoint, answering like
// the coordinator's dispatchTo: a 202 is polled until it settles.
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

// dirBytes is the on-disk size of a journal directory.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// TestWorkerJournalCompactsWithinBounds: over a long dispatch stream a
// worker retires each dispatch's records once it settles, compacts on
// the daemon's rule, and so keeps
// its journal under 2 × live + floor — while the dispatches still open
// across every compaction replay after a crash.
func TestWorkerJournalCompactsWithinBounds(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	rec := obs.NewRecorder()
	jrnl, _, err := durable.Open(dir, durable.Options{SyncEvery: -1, Recorder: rec, Logger: quietTestLogger()})
	if err != nil {
		t.Fatal(err)
	}
	pool := jobs.New(jobs.Config{Workers: 1, QueueSize: 32, Recorder: rec})
	wk := NewWorker(WorkerConfig{Journal: jrnl, Recorder: rec, Logger: quietTestLogger()})
	const floor = 2 << 10
	wk.compactFloor = floor
	api := server.New(server.Config{
		Pool: pool, Cache: scancache.New(1<<20, rec), Recorder: rec,
		Retry: jobs.RetryPolicy{MaxAttempts: 1}, OnSettle: wk.OnSettle,
	})
	wk.Bind(api, pool)
	ts := httptest.NewServer(wk.Handler())
	block := make(chan struct{})
	t.Cleanup(func() {
		close(block)
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		pool.Shutdown(ctx)
		jrnl.Close()
	})

	checkBound := func(step string) {
		t.Helper()
		u := jrnl.Usage()
		if disk := dirBytes(t, dir); disk > 2*u.LiveBytes+floor {
			t.Fatalf("%s: journal holds %d bytes, over 2 × live (%d) + floor (%d)", step, disk, u.LiveBytes, floor)
		}
	}

	// Polled dispatches: each runs a scan to completion. The first also
	// warms the cache for the stream below.
	for i := 0; i < 12; i++ {
		req, _ := startedRecord(t, fmt.Sprintf("poll-%02d", i))
		status, view := dispatch(t, ts.URL, req)
		if status != http.StatusAccepted {
			t.Fatalf("dispatch %s = HTTP %d, want 202", req.ScanID, status)
		}
		if got := waitSettled(t, ts.URL, view.ID); got.Status != "done" {
			t.Fatalf("dispatch %s settled %q", req.ScanID, got.Status)
		}
		checkBound(req.ScanID)
	}

	// Park the only pool worker, then open two dispatches that stay
	// queued: they must survive every compaction below.
	if err := pool.Submit(func(context.Context) { <-block }); err != nil {
		t.Fatal(err)
	}
	var openIDs []string
	for _, id := range []string{"open-1", "open-2"} {
		req, _ := startedRecord(t, id)
		if status, _ := dispatch(t, ts.URL, req); status != http.StatusAccepted {
			t.Fatalf("dispatch %s = HTTP %d, want 202", id, status)
		}
		openIDs = append(openIDs, id)
	}

	// A long stream of cache hits: answered inline, so each dispatch is
	// settled as soon as it is accepted.
	warm, _ := startedRecord(t, "poll-00")
	for i := 0; i < 200; i++ {
		warm.ScanID = fmt.Sprintf("hit-%03d", i)
		if status, _ := dispatch(t, ts.URL, warm); status != http.StatusOK {
			t.Fatalf("cache-hit dispatch %s = HTTP %d, want 200", warm.ScanID, status)
		}
		checkBound(warm.ScanID)
	}
	if got := rec.Counter("journal_compactions_total").Value(); got == 0 {
		t.Fatal("journal_compactions_total = 0 after the stream")
	}

	// Crash: freeze the journal as it stands and restart on the copy.
	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	wk2, records, rec2, url2 := restartWorker(t, crashed)
	if n := wk2.Replay(records); n != len(openIDs) {
		t.Fatalf("Replay = %d, want %d (only the open dispatches)", n, len(openIDs))
	}
	for _, id := range openIDs {
		resp, err := http.Get(url2 + "/internal/v1/inflight?scan=" + id)
		if err != nil {
			t.Fatal(err)
		}
		var e inflightEntry
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || e.WorkerScanID == "" {
			t.Fatalf("replayed dispatch %s not carried: %+v (%v)", id, e, err)
		}
		if got := waitSettled(t, url2, e.WorkerScanID); got.Status != "done" {
			t.Fatalf("replayed dispatch %s settled %q", id, got.Status)
		}
	}
	if got := rec2.Counter("fleet_worker_replayed_total").Value(); got != int64(len(openIDs)) {
		t.Errorf("fleet_worker_replayed_total = %d, want %d", got, len(openIDs))
	}
}

// TestWorkerReplayCompactionKeepsOpenDispatches: a restarted worker
// whose journal holds more than a floor of settled dispatches compacts
// while it replays. Dispatches still open — journaled after the
// settled ones — must make it into the compacted journal, so a second
// crash replays them again.
func TestWorkerReplayCompactionKeepsOpenDispatches(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	var history []durable.Record
	for i := 0; i < 24; i++ {
		id := fmt.Sprintf("settled-%02d", i)
		_, started := startedRecord(t, id)
		raw, _ := json.Marshal(settlePayload{State: "done", WorkerScanID: "w-" + id})
		history = append(append(history, started...),
			durable.Record{Type: durable.RecDispatchSettled, ScanID: id, Payload: raw})
	}
	openIDs := []string{"late-open-1", "late-open-2"}
	for _, id := range openIDs {
		_, started := startedRecord(t, id)
		history = append(history, started...)
	}
	writeWorkerJournal(t, dir, history...)
	before := dirBytes(t, dir)

	// First restart, with a floor the settled pairs outweigh. Park both
	// pool workers so the replayed dispatches stay open.
	wk, records, _, _ := restartWorker(t, dir)
	wk.compactFloor = 2 << 10
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	for i := 0; i < wk.pool.Workers(); i++ {
		if err := wk.pool.Submit(func(context.Context) { <-block }); err != nil {
			t.Fatal(err)
		}
	}
	if n := wk.Replay(records); n != len(openIDs) {
		t.Fatalf("first Replay = %d, want %d", n, len(openIDs))
	}
	if after := dirBytes(t, dir); after >= before {
		t.Fatalf("replay did not compact: journal %d bytes → %d", before, after)
	}

	// Second crash, frozen while the replayed dispatches are queued.
	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	wk2, records2, _, _ := restartWorker(t, crashed)
	if n := wk2.Replay(records2); n != len(openIDs) {
		t.Fatalf("second Replay = %d, want %d (open dispatches lost by the compaction)", n, len(openIDs))
	}
}
