package fleet

// Robustness-layer unit and integration tests: flap damping, hedged
// dispatch, coordinator adoption of in-flight worker scans, membership
// churn under load, worker auto-registration, and the journaled member
// set.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/durable"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/scancache"
	"repro/internal/server"
)

// quietTestLogger discards log output (Announce retries are noisy by
// design).
func quietTestLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// ---------------------------------------------------------------------------
// Load-independent ownership.

// TestHeartbeatLoadNeverMovesALineage: heartbeats report pool size and
// queue depth, and neither moves any key's owner — a queue spike and
// its drain leave every plugin on the worker that holds its artifacts.
func TestHeartbeatLoadNeverMovesALineage(t *testing.T) {
	t.Parallel()
	members := []string{"http://a:1", "http://b:1"}
	fl := New(Config{Workers: members, Recorder: obs.NewRecorder()})
	owners := func() []string {
		fl.mu.Lock()
		defer fl.mu.Unlock()
		out := make([]string, 1000)
		for i := range out {
			out[i] = fl.ring.OwnersWhere(fmt.Sprintf("lineage|phpsafe|wordpress|plugin-%04d", i), 1, nil)[0]
		}
		return out
	}
	before := owners()
	for _, hb := range []heartbeatPayload{{Workers: 4, QueueDepth: 100}, {Workers: 4, QueueDepth: 0}} {
		for _, m := range members {
			fl.settleProbe(m, &hb, nil)
		}
		after := owners()
		for i := range before {
			if after[i] != before[i] {
				t.Fatalf("heartbeat %+v moved lineage %d: %s -> %s", hb, i, before[i], after[i])
			}
		}
	}
	status, _ := fl.Status()
	raw, err := json.Marshal(status)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"weight"`) {
		t.Errorf("Status() still reports a weight: %s", raw)
	}
}

// ---------------------------------------------------------------------------
// Flap damping.

// TestFleetFlapDamping: a dead worker must answer reviveAfter
// consecutive probes before re-entering the ring; a single good packet
// on a flapping link keeps it out and bumps the suppression counter.
func TestFleetFlapDamping(t *testing.T) {
	t.Parallel()
	rec := obs.NewRecorder()
	addr := "http://flappy:1"
	fl := New(Config{
		Workers: []string{addr}, DeadAfter: 3,
		Recorder: rec,
	})
	state := func() string {
		fl.mu.Lock()
		defer fl.mu.Unlock()
		return fl.workers[addr].state
	}
	boom := context.DeadlineExceeded

	for i := 0; i < 3; i++ {
		fl.ReportFailure(addr, boom)
	}
	if got := state(); got != StateDead {
		t.Fatalf("after 3 misses state = %s, want dead", got)
	}

	// One good probe: still dead, revival suppressed.
	fl.ReportSuccess(addr)
	if got := state(); got != StateDead {
		t.Fatalf("after 1 success state = %s, want still dead (flap damping)", got)
	}
	if got := rec.Counter("fleet_flaps_suppressed_total").Value(); got != 1 {
		t.Errorf("fleet_flaps_suppressed_total = %d, want 1", got)
	}

	// A miss resets the revival bank: the next lone success is
	// suppressed again.
	fl.ReportFailure(addr, boom)
	fl.ReportSuccess(addr)
	if got := state(); got != StateDead {
		t.Fatalf("flapping link revived on a lone success after a miss")
	}
	if got := rec.Counter("fleet_flaps_suppressed_total").Value(); got != 2 {
		t.Errorf("fleet_flaps_suppressed_total = %d, want 2", got)
	}

	// Two consecutive successes: alive.
	fl.ReportSuccess(addr)
	if got := state(); got != StateAlive {
		t.Fatalf("after 2 consecutive successes state = %s, want alive", got)
	}
	if got := rec.Gauge("fleet_workers_alive").Value(); got != 1 {
		t.Errorf("fleet_workers_alive = %v, want 1", got)
	}
}

// ---------------------------------------------------------------------------
// Hedged dispatch.

// newFullWorker boots a worker with two pool slots, optionally behind
// middleware.
func newFullWorker(t *testing.T, wrap func(http.Handler) http.Handler) (*httptest.Server, *Worker) {
	t.Helper()
	rec := obs.NewRecorder()
	pool := jobs.New(jobs.Config{Workers: 2, QueueSize: 32, Recorder: rec})
	wk := NewWorker(WorkerConfig{})
	api := server.New(server.Config{
		Pool:     pool,
		Cache:    scancache.New(1<<20, rec),
		Recorder: rec,
		Retry:    jobs.RetryPolicy{MaxAttempts: 1},
	})
	wk.Bind(api, pool)
	h := wk.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		pool.Shutdown(ctx)
	})
	return ts, wk
}

// slowDispatch delays POST /internal/v1/scan by d, leaving heartbeats
// and polling untouched — the classic slow worker hedging exists for.
func slowDispatch(d time.Duration) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/internal/v1/scan") {
				select {
				case <-r.Context().Done():
					return
				case <-time.After(d):
				}
			}
			next.ServeHTTP(w, r)
		})
	}
}

// newHedgeCoordinator boots a coordinator with hedging configured.
func newHedgeCoordinator(t *testing.T, workerURLs []string, hedgeDelay time.Duration) (*httptest.Server, *obs.Recorder) {
	t.Helper()
	rec := obs.NewRecorder()
	pool := jobs.New(jobs.Config{Workers: 4, QueueSize: 32, Recorder: rec})
	fl := New(Config{
		Workers:           workerURLs,
		HeartbeatInterval: 50 * time.Millisecond,
		DeadAfter:         2,
		HedgeDelay:        hedgeDelay,
		ReconnectBackoff:  jobs.RetryPolicy{Base: 20 * time.Millisecond, Cap: 100 * time.Millisecond},
		Recorder:          rec,
	})
	api := server.New(server.Config{
		Pool:        pool,
		Cache:       scancache.New(1<<20, rec),
		Recorder:    rec,
		Retry:       jobs.RetryPolicy{MaxAttempts: 6, Base: 10 * time.Millisecond, Cap: 50 * time.Millisecond},
		Dispatch:    fl.Dispatch,
		FleetStatus: fl.Status,
	})
	fl.Start()
	ts := httptest.NewServer(api)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		pool.Shutdown(ctx)
		fl.Stop()
	})
	return ts, rec
}

// TestFleetHedgeReplication: with a one-nanosecond hedge delay every
// dispatch races both owners immediately; with one worker slowed far past the
// test's patience for a single branch, every scan still settles done
// and every trace records the full hedge lifecycle.
func TestFleetHedgeReplication(t *testing.T) {
	t.Parallel()
	fast, _ := newFullWorker(t, nil)
	slow, _ := newFullWorker(t, slowDispatch(2*time.Second))
	coord, rec := newHedgeCoordinator(t, []string{fast.URL, slow.URL}, time.Nanosecond)

	for _, name := range []string{"rep-a", "rep-b", "rep-c", "rep-d"} {
		sc := submitScan(t, coord.URL, name, vulnerablePHP+"// "+name+"\n")
		start := time.Now()
		got := waitSettled(t, coord.URL, sc.ID)
		if got.Status != "done" {
			t.Fatalf("scan %s = %s (%s), want done", name, got.Status, got.Error)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("scan %s took %s despite replication; the slow branch should never gate settling", name, d)
		}
		var fired, won, cancelled bool
		for _, ev := range scanTrace(t, coord.URL, sc.ID) {
			switch ev.Type {
			case EvHedgeFired:
				fired = true
			case EvHedgeWon:
				won = true
				if ev.Detail != got.Worker {
					t.Errorf("scan %s: hedge_won names %q, scan settled on %q", name, ev.Detail, got.Worker)
				}
			case EvHedgeCancelled:
				cancelled = true
				if ev.Detail == got.Worker {
					t.Errorf("scan %s: hedge_cancelled names the winning worker %q", name, ev.Detail)
				}
			}
		}
		if !fired || !won || !cancelled {
			t.Errorf("scan %s: hedge lifecycle fired=%v won=%v cancelled=%v, want all", name, fired, won, cancelled)
		}
	}
	if got := rec.Counter("fleet_hedges_total").Value(); got < 4 {
		t.Errorf("fleet_hedges_total = %d, want >= 4 (one per replicated dispatch)", got)
	}
	if got := rec.Counter("fleet_hedge_wins_total").Value(); got < 4 {
		t.Errorf("fleet_hedge_wins_total = %d, want >= 4", got)
	}
}

// TestFleetHedgeDelay: with a positive hedge delay, scans owned by the
// slow worker grow a second branch after the delay and settle on the
// fast one long before the slow dispatch would have completed.
func TestFleetHedgeDelay(t *testing.T) {
	t.Parallel()
	const stall = 5 * time.Second
	fast, _ := newFullWorker(t, nil)
	slow, _ := newFullWorker(t, slowDispatch(stall))
	coord, rec := newHedgeCoordinator(t, []string{fast.URL, slow.URL}, 40*time.Millisecond)

	// Enough distinct digests that at least one is owned by the slow
	// worker (12 digests all landing on one of two members is a ~2^-12
	// accident).
	hedged := 0
	for i := 0; i < 12; i++ {
		name := "hd-" + string(rune('a'+i))
		sc := submitScan(t, coord.URL, name, vulnerablePHP+"// "+name+"\n")
		start := time.Now()
		got := waitSettled(t, coord.URL, sc.ID)
		if got.Status != "done" {
			t.Fatalf("scan %s = %s (%s), want done", name, got.Status, got.Error)
		}
		if d := time.Since(start); d > stall {
			t.Errorf("scan %s took %s; hedging should beat the %s stall", name, d, stall)
		}
		for _, ev := range scanTrace(t, coord.URL, sc.ID) {
			if ev.Type == EvHedgeFired {
				hedged++
				if !strings.Contains(ev.Detail, "hedge delay elapsed") {
					t.Errorf("scan %s: hedge_fired detail = %q, want the delay as reason", name, ev.Detail)
				}
				if got.Worker != fast.URL {
					t.Errorf("scan %s hedged but settled on %q, want the fast worker", name, got.Worker)
				}
				break
			}
		}
	}
	if hedged == 0 {
		t.Error("no scan fired a hedge; 12 digests all owned by the fast worker is implausible")
	}
	if got := rec.Counter("fleet_hedges_total").Value(); got < int64(hedged) {
		t.Errorf("fleet_hedges_total = %d, want >= %d", got, hedged)
	}
}

// ---------------------------------------------------------------------------
// Adoption.

// TestFleetAdoptionAttachesToWorkerScan: a resubmitted dispatch whose
// scan id a worker still holds (GET /v1/scans/{id} answers) attaches to
// that scan (adopted event, adoption counter) instead of dispatching
// again; a resubmitted scan no worker holds falls through to a fresh
// dispatch.
func TestFleetAdoptionAttachesToWorkerScan(t *testing.T) {
	t.Parallel()
	ws, _ := newFullWorker(t, nil)

	// Dispatch to the worker directly, as a pre-restart coordinator
	// would have.
	body, _ := encodeDispatch(&server.DispatchRequest{
		ScanID: "coord-adopt-1", Attempt: 2, Name: "adoptee",
		Target: &analyzer.Target{Files: []analyzer.SourceFile{{Path: "adoptee.php", Content: vulnerablePHP}}},
	})
	resp, err := http.Post(ws.URL+"/internal/v1/scan", "application/octet-stream", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("seeding dispatch = HTTP %d", resp.StatusCode)
	}

	rec := obs.NewRecorder()
	fl := New(Config{Workers: []string{ws.URL}, Recorder: rec})
	defer fl.Stop()

	// The replayed attempt: Resubmitted routes through reconciliation.
	res, err := fl.Dispatch(context.Background(), &server.DispatchRequest{
		ScanID: "coord-adopt-1", Key: "adopt-key", Attempt: 3, Resubmitted: true,
		Name: "adoptee",
		Target: &analyzer.Target{Name: "adoptee", Files: []analyzer.SourceFile{
			{Path: "adoptee.php", Content: vulnerablePHP},
		}},
	})
	if err != nil {
		t.Fatalf("adopting dispatch: %v", err)
	}
	if res.Worker != ws.URL || res.Result == nil {
		t.Fatalf("adopted result worker=%q result=%v, want result from %s", res.Worker, res.Result != nil, ws.URL)
	}
	if got := rec.Counter("fleet_adoptions_total").Value(); got != 1 {
		t.Errorf("fleet_adoptions_total = %d, want 1", got)
	}
	var adopted bool
	for _, ev := range rec.Events().ForScan("coord-adopt-1") {
		if ev.Type == EvAdopted {
			adopted = true
			if !strings.Contains(ev.Detail, ws.URL) {
				t.Errorf("adopted detail = %q, want it to name %s", ev.Detail, ws.URL)
			}
		}
	}
	if !adopted {
		t.Error("no adopted event recorded for the reconciled scan")
	}

	// A resubmitted scan the worker never saw: normal dispatch, no
	// second adoption.
	res2, err := fl.Dispatch(context.Background(), &server.DispatchRequest{
		ScanID: "coord-adopt-2", Key: "other-key", Attempt: 1, Resubmitted: true,
		Name: "fresh",
		Target: &analyzer.Target{Name: "fresh", Files: []analyzer.SourceFile{
			{Path: "fresh.php", Content: vulnerablePHP + "// fresh\n"},
		}},
	})
	if err != nil {
		t.Fatalf("fallback dispatch: %v", err)
	}
	if res2.Result == nil {
		t.Fatal("fallback dispatch returned no result")
	}
	if got := rec.Counter("fleet_adoptions_total").Value(); got != 1 {
		t.Errorf("fleet_adoptions_total = %d after uncarried resubmission, want still 1", got)
	}
}

// ---------------------------------------------------------------------------
// Membership churn under load (joins and deaths mid-stream).

// TestFleetMembershipChurnUnderLoad: scans keep settling done while a
// worker joins mid-stream and another dies mid-stream; no accepted
// scan is lost and nothing settles anywhere but a live worker.
func TestFleetMembershipChurnUnderLoad(t *testing.T) {
	t.Parallel()
	w1, _ := newFullWorker(t, nil)
	w2, _ := newFullWorker(t, nil)

	rec := obs.NewRecorder()
	pool := jobs.New(jobs.Config{Workers: 4, QueueSize: 64, Recorder: rec})
	fl := New(Config{
		Workers:           []string{w1.URL},
		HeartbeatInterval: 40 * time.Millisecond,
		DeadAfter:         2,
		ReconnectBackoff:  jobs.RetryPolicy{Base: 20 * time.Millisecond, Cap: 100 * time.Millisecond},
		Recorder:          rec,
	})
	api := server.New(server.Config{
		Pool:        pool,
		Cache:       scancache.New(1<<20, rec),
		Recorder:    rec,
		Retry:       jobs.RetryPolicy{MaxAttempts: 8, Base: 10 * time.Millisecond, Cap: 60 * time.Millisecond},
		Dispatch:    fl.Dispatch,
		FleetStatus: fl.Status,
	})
	fl.Start()
	coord := httptest.NewServer(NewCoordinatorHandler(api, fl))
	t.Cleanup(func() {
		coord.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		pool.Shutdown(ctx)
		fl.Stop()
	})

	var ids []string
	phase := func(prefix string, n int) {
		for i := 0; i < n; i++ {
			name := prefix + string(rune('a'+i))
			ids = append(ids, submitScan(t, coord.URL, name, vulnerablePHP+"// "+name+"\n").ID)
		}
	}

	phase("churn1-", 6)

	// w2 joins mid-stream through the registration endpoint.
	joinBody := `{"advertise":"` + w2.URL + `"}`
	resp, err := http.Post(coord.URL+"/internal/v1/join", "application/json", strings.NewReader(joinBody))
	if err != nil {
		t.Fatal(err)
	}
	var joined struct {
		Joined  bool     `json:"joined"`
		Members []string `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&joined); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !joined.Joined || len(joined.Members) != 2 {
		t.Fatalf("join response = %+v, want joined with 2 members", joined)
	}

	phase("churn2-", 6)

	// w2 dies mid-stream; its keys must hand off to the survivor.
	w2.Close()
	phase("churn3-", 6)

	for _, id := range ids {
		got := waitSettled(t, coord.URL, id)
		if got.Status != "done" {
			t.Fatalf("scan %s = %s (%s) under membership churn, want done", id, got.Status, got.Error)
		}
		if got.Worker != w1.URL && got.Worker != w2.URL {
			t.Errorf("scan %s settled on %q, not a fleet member", id, got.Worker)
		}
	}
	if got := rec.Counter("fleet_joins_total").Value(); got != 1 {
		t.Errorf("fleet_joins_total = %d, want 1", got)
	}
}

// ---------------------------------------------------------------------------
// Worker auto-registration retry.

// TestAnnounceRetriesUntilCoordinatorUp: a worker that boots before its
// coordinator keeps knocking with backoff and registers as soon as the
// join endpoint exists.
func TestAnnounceRetriesUntilCoordinatorUp(t *testing.T) {
	t.Parallel()
	rec := obs.NewRecorder()
	fl := New(Config{Recorder: rec})
	defer fl.Stop()

	var mu sync.Mutex
	up := false
	join := NewCoordinatorHandler(http.NotFoundHandler(), fl)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ready := up
		mu.Unlock()
		if !ready {
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		join.ServeHTTP(w, r)
	}))
	defer front.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		Announce(ctx, nil, front.URL, "http://announced:9999",
			jobs.RetryPolicy{Base: 10 * time.Millisecond, Cap: 40 * time.Millisecond}, quietTestLogger())
	}()

	// Let a few announce attempts fail before the coordinator comes up.
	time.Sleep(60 * time.Millisecond)
	mu.Lock()
	up = true
	mu.Unlock()

	deadline := time.Now().Add(10 * time.Second)
	for {
		fl.mu.Lock()
		_, ok := fl.workers["http://announced:9999"]
		fl.mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("announced worker never joined the fleet")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := rec.Counter("fleet_joins_total").Value(); got != 1 {
		t.Errorf("fleet_joins_total = %d, want 1", got)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Announce did not return after context cancel")
	}
}

// TestJoinCanonicalizesAdvertise: a worker announcing with a trailing
// slash is the configured member, not a second one; an advertise that
// is not a base URL is refused with 400 and nothing is journaled.
func TestJoinCanonicalizesAdvertise(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	jrnl, _, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	fl := New(Config{Workers: []string{"http://w:1"}, Journal: jrnl, Recorder: rec})
	defer fl.Stop()
	coord := httptest.NewServer(NewCoordinatorHandler(http.NotFoundHandler(), fl))
	defer coord.Close()
	join := func(advertise string) (int, map[string]any) {
		raw, _ := json.Marshal(joinRequest{Advertise: advertise})
		resp, err := http.Post(coord.URL+"/internal/v1/join", "application/json", strings.NewReader(string(raw)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("join %q: undecodable answer: %v", advertise, err)
		}
		return resp.StatusCode, body
	}

	code, body := join("http://w:1/")
	if code != http.StatusOK || body["joined"] != false || fmt.Sprint(body["members"]) != "[http://w:1]" {
		t.Fatalf("join http://w:1/ = %d %v, want 200 joined:false members [http://w:1]", code, body)
	}
	for _, bad := range []string{"", "ftp://x", "http://w:1/x"} {
		if code, body := join(bad); code != http.StatusBadRequest {
			t.Errorf("join %q = %d %v, want 400", bad, code, body)
		}
	}
	if got := rec.Counter("fleet_joins_total").Value(); got != 0 {
		t.Errorf("fleet_joins_total = %d, want 0", got)
	}
	if err := jrnl.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, records, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if members := MembersFromRecords(records); len(members) != 0 {
		t.Errorf("journaled members = %v, want none", members)
	}
}

// ---------------------------------------------------------------------------
// Journaled membership.

// TestMemberJournalRoundTrip: AddWorker journals the member, and a
// reopened journal's records rebuild the set via MembersFromRecords —
// the path a restarted coordinator takes before any worker
// re-announces.
func TestMemberJournalRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	jrnl, _, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	fl := New(Config{Journal: jrnl, Recorder: rec})
	if added, err := fl.AddWorker("http://joined:1"); err != nil || !added {
		t.Fatal("AddWorker reported an existing member for a fresh address")
	}
	if added, err := fl.AddWorker("http://joined:1"); err != nil || added {
		t.Fatal("re-announcement reported as a new member")
	}
	fl.Stop()

	mrs := fl.MemberRecords()
	if len(mrs) != 1 || mrs[0].Worker != "http://joined:1" {
		t.Fatalf("MemberRecords = %+v, want the one joined worker", mrs)
	}
	if err := jrnl.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, records, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	members := MembersFromRecords(records)
	if len(members) != 1 || members[0] != "http://joined:1" {
		t.Fatalf("MembersFromRecords = %v, want [http://joined:1]", members)
	}
}
