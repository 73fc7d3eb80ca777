package fleet

// In-process fleet end-to-end tests: real coordinator server.Server
// dispatching to real worker server.Servers over httptest HTTP, with
// worker death simulated by closing a worker's listener before the
// monitor has ever probed it.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/incremental"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/scancache"
	"repro/internal/server"
)

// vulnerablePHP trips the phpSAFE engine deterministically.
const vulnerablePHP = `<?php
$path = $_GET['img_path'];
echo 'Created ' . $path . '.';
$user = $_POST['user'];
mysql_query("SELECT * FROM users WHERE login='" . $user . "'");
`

// scanView is the slice of the scan envelope these tests assert on;
// Result stays raw for byte-identity comparison.
type scanView struct {
	ID     string              `json:"id"`
	Status string              `json:"status"`
	Cached bool                `json:"cached"`
	Worker string              `json:"worker"`
	Result json.RawMessage     `json:"result"`
	Inc    *incremental.Report `json:"incremental"`
	Error  string              `json:"error"`
}

// newWorker boots one fleet worker: a full server stack with a
// single-attempt budget behind the worker handler, without a journal.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	rec := obs.NewRecorder()
	pool := jobs.New(jobs.Config{Workers: 1, QueueSize: 16, Recorder: rec})
	api := server.New(server.Config{
		Pool:     pool,
		Cache:    scancache.New(1<<20, rec),
		Recorder: rec,
		Retry:    jobs.RetryPolicy{MaxAttempts: 1},
	})
	wk := NewWorker(WorkerConfig{})
	wk.Bind(api, pool)
	ts := httptest.NewServer(wk.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		pool.Shutdown(ctx)
	})
	return ts
}

// newCoordinator boots a coordinator over the given worker URLs with
// fast heartbeat and retry tuning; mutate adjusts its server config.
func newCoordinator(t *testing.T, workerURLs []string, mutate ...func(*server.Config)) (*httptest.Server, *Fleet, *obs.Recorder) {
	t.Helper()
	rec := obs.NewRecorder()
	pool := jobs.New(jobs.Config{Workers: 4, QueueSize: 32, Recorder: rec})
	fl := New(Config{
		Workers:           workerURLs,
		HeartbeatInterval: 50 * time.Millisecond,
		DeadAfter:         2,
		ReconnectBackoff:  jobs.RetryPolicy{Base: 20 * time.Millisecond, Cap: 100 * time.Millisecond},
		Recorder:          rec,
	})
	cfg := server.Config{
		Pool:        pool,
		Cache:       scancache.New(1<<20, rec),
		Recorder:    rec,
		Retry:       jobs.RetryPolicy{MaxAttempts: 6, Base: 10 * time.Millisecond, Cap: 50 * time.Millisecond},
		Dispatch:    fl.Dispatch,
		FleetStatus: fl.Status,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	api := server.New(cfg)
	fl.Start()
	ts := httptest.NewServer(api)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		pool.Shutdown(ctx)
		fl.Stop()
	})
	return ts, fl, rec
}

func submitScan(t *testing.T, base, name, php string) scanView {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"name":  name,
		"files": map[string]string{name + ".php": php},
	})
	resp, err := http.Post(base+"/v1/scans", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit %s = HTTP %d", name, resp.StatusCode)
	}
	var sc scanView
	if err := json.NewDecoder(resp.Body).Decode(&sc); err != nil {
		t.Fatal(err)
	}
	return sc
}

func waitSettled(t *testing.T, base, id string) scanView {
	t.Helper()
	resp, err := http.Get(base + "/v1/scans/" + id + "?wait=30s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sc scanView
	if err := json.NewDecoder(resp.Body).Decode(&sc); err != nil {
		t.Fatal(err)
	}
	switch sc.Status {
	case "done", "cancelled", "quarantined":
		return sc
	}
	t.Fatalf("scan %s never settled (status %s)", id, sc.Status)
	return scanView{}
}

func scanTrace(t *testing.T, base, id string) []obs.Event {
	t.Helper()
	resp, err := http.Get(base + "/v1/scans/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr.Events
}

// TestFleetDispatchRouting: scans submitted to the coordinator settle
// done on fleet workers, results are byte-identical to a standalone
// daemon's for the same content, routing is deterministic per digest,
// every dispatched scan's trace records the dispatch, and /readyz
// reports both workers alive.
func TestFleetDispatchRouting(t *testing.T) {
	t.Parallel()
	w1, w2 := newWorker(t), newWorker(t)
	coord, _, rec := newCoordinator(t, []string{w1.URL, w2.URL})

	// Standalone baseline for byte-identity.
	saRec := obs.NewRecorder()
	saPool := jobs.New(jobs.Config{Workers: 1, QueueSize: 16, Recorder: saRec})
	standalone := httptest.NewServer(server.New(server.Config{
		Pool: saPool, Cache: scancache.New(1<<20, saRec), Recorder: saRec,
	}))
	t.Cleanup(func() {
		standalone.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		saPool.Shutdown(ctx)
	})

	workersSeen := map[string]bool{}
	for _, name := range []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"} {
		sc := submitScan(t, coord.URL, name, vulnerablePHP+"// "+name+"\n")
		got := waitSettled(t, coord.URL, sc.ID)
		if got.Status != "done" {
			t.Fatalf("scan %s = %s (%s), want done", name, got.Status, got.Error)
		}
		if got.Worker != w1.URL && got.Worker != w2.URL {
			t.Fatalf("scan %s ran on %q, want a fleet worker", name, got.Worker)
		}
		workersSeen[got.Worker] = true

		ref := waitSettled(t, standalone.URL,
			submitScan(t, standalone.URL, name, vulnerablePHP+"// "+name+"\n").ID)
		if string(got.Result) != string(ref.Result) {
			t.Errorf("scan %s: fleet result differs from standalone:\nfleet: %s\nsolo:  %s",
				name, got.Result, ref.Result)
		}

		var dispatched bool
		for _, ev := range scanTrace(t, coord.URL, sc.ID) {
			if ev.Type == EvDispatched && ev.Detail == got.Worker {
				dispatched = true
			}
		}
		if !dispatched {
			t.Errorf("scan %s: trace has no %s event naming %s", name, EvDispatched, got.Worker)
		}

		// Identical resubmission: served from the coordinator's cache,
		// no second dispatch.
		again := submitScan(t, coord.URL, name, vulnerablePHP+"// "+name+"\n")
		if !again.Cached || again.Status != "done" {
			t.Errorf("scan %s resubmission = cached=%v status=%s, want cache hit", name, again.Cached, again.Status)
		}
	}
	if len(workersSeen) != 2 {
		t.Logf("note: all scans routed to one worker (legal for 6 digests, just unlikely)")
	}

	if got := rec.Gauge("fleet_workers_alive").Value(); got != 2 {
		t.Errorf("fleet_workers_alive = %v, want 2", got)
	}
	resp, err := http.Get(coord.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", resp.StatusCode)
	}
	var ready struct {
		Fleet struct {
			Workers []WorkerStatus `json:"workers"`
		} `json:"fleet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if len(ready.Fleet.Workers) != 2 {
		t.Fatalf("/readyz fleet workers = %+v, want 2 entries", ready.Fleet.Workers)
	}
	for _, ws := range ready.Fleet.Workers {
		if ws.State != StateAlive {
			t.Errorf("/readyz worker %s state = %s, want alive", ws.Addr, ws.State)
		}
	}
}

// TestFleetWorkerDeathHandoff: with one worker down from the start
// (the coordinator optimistically assumes it alive), every scan still
// settles done on the survivor; scans whose ring owner was the dead
// worker record ownership_transferred + resubmitted_to_peer in their
// trace, the handoff counter moves, and /readyz degrades to reporting
// the dead worker while staying 200.
func TestFleetWorkerDeathHandoff(t *testing.T) {
	t.Parallel()
	w1, w2 := newWorker(t), newWorker(t)
	deadURL := w2.URL
	w2.Close() // dead before the coordinator's first probe

	coord, _, rec := newCoordinator(t, []string{w1.URL, deadURL})

	ids := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		name := "handoff" + string(rune('a'+i))
		sc := submitScan(t, coord.URL, name, vulnerablePHP+"// "+name+"\n")
		ids = append(ids, sc.ID)
	}
	handoffs := 0
	for _, id := range ids {
		got := waitSettled(t, coord.URL, id)
		if got.Status != "done" {
			t.Fatalf("scan %s = %s (%s), want done despite dead worker", id, got.Status, got.Error)
		}
		if got.Worker != w1.URL {
			t.Fatalf("scan %s ran on %q, want survivor %s", id, got.Worker, w1.URL)
		}
		var transferred, resubmitted bool
		for _, ev := range scanTrace(t, coord.URL, id) {
			switch ev.Type {
			case EvOwnershipTransferred:
				transferred = true
				if !strings.Contains(ev.Detail, deadURL) || !strings.Contains(ev.Detail, w1.URL) {
					t.Errorf("scan %s: %s detail = %q, want %q -> %q", id, ev.Type, ev.Detail, deadURL, w1.URL)
				}
			case EvResubmittedToPeer:
				resubmitted = true
				if ev.Detail != w1.URL {
					t.Errorf("scan %s: %s detail = %q, want %s", id, ev.Type, ev.Detail, w1.URL)
				}
			}
		}
		if transferred != resubmitted {
			t.Errorf("scan %s: transferred=%v resubmitted=%v, want both or neither", id, transferred, resubmitted)
		}
		if transferred {
			handoffs++
		}
	}
	if handoffs == 0 {
		t.Error("no scan recorded an ownership handoff; 12 digests all routed to the survivor is implausible")
	}
	if got := rec.Counter("fleet_handoffs_total").Value(); got < int64(handoffs) {
		t.Errorf("fleet_handoffs_total = %d, want >= %d", got, handoffs)
	}

	// The dead worker is reported dead, but one survivor keeps /readyz
	// at 200.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(coord.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var ready struct {
			Fleet struct {
				Workers []WorkerStatus `json:"workers"`
			} `json:"fleet"`
		}
		code := resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&ready)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusOK {
			t.Fatalf("/readyz = %d with a live worker, want 200", code)
		}
		states := map[string]string{}
		for _, ws := range ready.Fleet.Workers {
			states[ws.Addr] = ws.State
		}
		if states[deadURL] == StateDead && states[w1.URL] == StateAlive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never reported %s dead: %+v", deadURL, states)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := rec.Gauge("fleet_workers_alive").Value(); got != 1 {
		t.Errorf("fleet_workers_alive = %v, want 1", got)
	}
}

// TestFleetAllWorkersDead: with every worker unreachable the
// coordinator stays up, /readyz goes 503 with per-worker detail, and
// an accepted scan exhausts its budget and quarantines instead of
// wedging.
func TestFleetAllWorkersDead(t *testing.T) {
	t.Parallel()
	ghost := httptest.NewServer(http.NotFoundHandler())
	url := ghost.URL
	ghost.Close()

	coord, _, rec := newCoordinator(t, []string{url})

	// The monitor's first sweep marks the worker dead within a few
	// probe intervals.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(coord.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz = %d, never degraded to 503 with all workers dead", code)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := rec.Gauge("fleet_workers_alive").Value(); got != 0 {
		t.Errorf("fleet_workers_alive = %v, want 0", got)
	}

	sc := submitScan(t, coord.URL, "stranded", vulnerablePHP)
	got := waitSettled(t, coord.URL, sc.ID)
	if got.Status != "quarantined" {
		t.Fatalf("scan with no workers = %s (%s), want quarantined", got.Status, got.Error)
	}
	if !strings.Contains(got.Error, "no workers reachable") {
		t.Errorf("quarantine error = %q, want it to name the unreachable fleet", got.Error)
	}
}
