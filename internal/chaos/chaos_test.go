// The chaos property test: a coordinator + 3-worker fleet, built from
// the same pieces phpsafed wires in main, runs a fixed scan corpus
// while a seeded fault schedule drops, delays, and duplicates
// dispatches, blackholes heartbeats, kills and reboots workers,
// restarts the coordinator, and fails journal writes. The property:
// every accepted scan settles done exactly once, with a result
// byte-identical to a standalone daemon's, under every schedule.
//
// Seeds come from CHAOS_SEED (pin one schedule) or CHAOS_SCHEDULES
// (how many sequential seeds to run; default 4, CI runs 20). Every
// failure message carries the seed, so any red run reproduces with
//
//	CHAOS_SEED=<n> go test -race -run TestChaosProperty ./internal/chaos/
package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/fleet"
	"repro/internal/govern"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/scancache"
	"repro/internal/server"
)

const (
	nWorkers   = 3
	corpusSize = 10
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// chunkyPHP generates a vulnerable plugin big enough that its scan
// spans fault windows instead of finishing before they open.
func chunkyPHP(name string, blocks int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<?php\n// chaos corpus: %s\n", name)
	for i := 0; i < blocks; i++ {
		fmt.Fprintf(&b, "$in%d = $_GET['p%d'];\n", i, i)
		fmt.Fprintf(&b, "$mid%d = 'x' . $in%d;\n", i, i)
		fmt.Fprintf(&b, "echo 'row' . $mid%d;\n", i)
		fmt.Fprintf(&b, "mysql_query(\"SELECT * FROM t WHERE c='\" . $mid%d . \"'\");\n", i)
	}
	return b.String()
}

type corpusItem struct{ name, php string }

func corpus() []corpusItem {
	items := make([]corpusItem, 0, corpusSize)
	for i := 0; i < corpusSize; i++ {
		name := fmt.Sprintf("chaos%02d", i)
		items = append(items, corpusItem{name: name, php: chunkyPHP(name, 150)})
	}
	return items
}

// scanView is the envelope slice the property asserts on; Result stays
// raw for byte-identity.
type scanView struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Cached bool            `json:"cached"`
	Worker string          `json:"worker"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

func settledStatus(s string) bool {
	switch s {
	case "done", "cancelled", "quarantined":
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Disk-fault seam. govern.IOFaultHookForTesting is a plain global read
// by every journal in the process, so it is installed exactly once for
// the whole test binary and never uninstalled — a job goroutine
// lingering past one schedule's teardown must not race a hook rewrite.
// The hook itself reads the active windows under a mutex; between
// schedules the window set is swapped, not the hook.

type journalWindow struct {
	dir       string
	at, until time.Duration
}

var (
	journalHookOnce     sync.Once
	journalFaultMu      sync.Mutex
	journalFaultEpoch   time.Time
	journalFaultWindows []journalWindow
)

func installJournalFaultHook() {
	journalHookOnce.Do(func() {
		govern.IOFaultHookForTesting = func(op, path string) error {
			journalFaultMu.Lock()
			defer journalFaultMu.Unlock()
			if journalFaultEpoch.IsZero() {
				return nil
			}
			elapsed := time.Since(journalFaultEpoch)
			for _, w := range journalFaultWindows {
				if elapsed >= w.at && elapsed <= w.until && strings.Contains(path, w.dir) {
					return fmt.Errorf("chaos: injected journal %s failure", op)
				}
			}
			return nil
		}
	})
}

func setJournalWindows(sched Schedule, epoch time.Time, dirs []string) {
	journalFaultMu.Lock()
	defer journalFaultMu.Unlock()
	journalFaultEpoch = epoch
	journalFaultWindows = nil
	for _, f := range sched.JournalFaults() {
		if f.Target >= 0 && f.Target < len(dirs) {
			journalFaultWindows = append(journalFaultWindows,
				journalWindow{dir: dirs[f.Target], at: f.At, until: f.At + f.Dur})
		}
	}
}

func clearJournalWindows() {
	journalFaultMu.Lock()
	defer journalFaultMu.Unlock()
	journalFaultEpoch = time.Time{}
	journalFaultWindows = nil
}

// ---------------------------------------------------------------------------
// Worker process. A stable httptest front door whose backend handler
// is swappable: kill() aborts every request at the transport layer
// (the coordinator sees connection errors, exactly like a SIGKILLed
// process behind a dead port) and hard-stops the pool so in-flight
// scans are interrupted un-settled; boot() rebuilds the full stack on
// the same scan-journal directory and replays it, as phpsafed
// -role=worker -journal DIR does.

type workerProc struct {
	t   *testing.T
	idx int
	dir string
	url string

	front *httptest.Server

	mu   sync.Mutex
	h    http.Handler
	pool *jobs.Pool
	jrnl *durable.Journal
}

func newWorkerProc(t *testing.T, idx int) *workerProc {
	t.Helper()
	wp := &workerProc{t: t, idx: idx, dir: t.TempDir()}
	wp.front = httptest.NewServer(http.HandlerFunc(wp.serve))
	wp.url = wp.front.URL
	wp.boot()
	return wp
}

func (wp *workerProc) serve(w http.ResponseWriter, r *http.Request) {
	wp.mu.Lock()
	h := wp.h
	wp.mu.Unlock()
	if h == nil {
		panic(http.ErrAbortHandler) // dead process: abort the connection
	}
	h.ServeHTTP(w, r)
}

func (wp *workerProc) boot() {
	wp.t.Helper()
	rec := obs.NewRecorder()
	var (
		jrnl    *durable.Journal
		records []durable.Record
		err     error
	)
	// A reboot can land inside this worker's own journal-fault window;
	// a real process would crash-loop until the disk heals, so retry.
	for attempt := 0; ; attempt++ {
		jrnl, records, err = durable.Open(wp.dir, durable.Options{Recorder: rec, Logger: quietLogger()})
		if err == nil {
			break
		}
		if attempt >= 20 {
			wp.t.Fatalf("worker[%d] journal never reopened: %v", wp.idx, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	pool := jobs.New(jobs.Config{Workers: 2, QueueSize: 64, Recorder: rec})
	api := server.New(server.Config{
		Pool:     pool,
		Cache:    scancache.New(1<<20, rec),
		Recorder: rec,
		Journal:  jrnl,
		Retry:    jobs.RetryPolicy{MaxAttempts: 1},
		Logger:   quietLogger(),
	})
	api.Replay(records)
	wk := fleet.NewWorker(fleet.WorkerConfig{Advertise: wp.url})
	wk.Bind(api, pool)

	wp.mu.Lock()
	wp.h = wk.Handler()
	wp.pool = pool
	wp.jrnl = jrnl
	wp.mu.Unlock()
}

// kill hard-stops the worker: requests abort — the open ones too, as
// a dead process's sockets reset — running scans are interrupted before
// they settle, the scan journal keeps them unsettled for the reboot's
// replay.
func (wp *workerProc) kill() {
	wp.mu.Lock()
	pool, jrnl := wp.pool, wp.jrnl
	wp.h, wp.pool, wp.jrnl = nil, nil, nil
	wp.mu.Unlock()
	wp.front.CloseClientConnections()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if pool != nil {
		pool.Shutdown(ctx)
	}
	if jrnl != nil {
		jrnl.Close()
	}
}

func (wp *workerProc) shutdown() {
	wp.front.Close()
	wp.mu.Lock()
	pool, jrnl := wp.pool, wp.jrnl
	wp.h, wp.pool, wp.jrnl = nil, nil, nil
	wp.mu.Unlock()
	if pool != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		pool.Shutdown(ctx)
		cancel()
	}
	if jrnl != nil {
		jrnl.Close()
	}
}

// ---------------------------------------------------------------------------
// Coordinator process: same swappable front door, full server + fleet
// stack, scan journal on a stable directory so restart() exercises
// replay and adoption.

type coordProc struct {
	t          *testing.T
	dir        string
	workerURLs []string
	inj        *Injector

	front *httptest.Server

	mu   sync.Mutex
	h    http.Handler
	pool *jobs.Pool
	fl   *fleet.Fleet
	jrnl *durable.Journal
}

func newCoordProc(t *testing.T, workerURLs []string, inj *Injector) *coordProc {
	t.Helper()
	cp := &coordProc{t: t, dir: t.TempDir(), workerURLs: workerURLs, inj: inj}
	cp.front = httptest.NewServer(http.HandlerFunc(cp.serve))
	cp.boot()
	return cp
}

func (cp *coordProc) serve(w http.ResponseWriter, r *http.Request) {
	cp.mu.Lock()
	h := cp.h
	cp.mu.Unlock()
	if h == nil {
		panic(http.ErrAbortHandler)
	}
	h.ServeHTTP(w, r)
}

func (cp *coordProc) boot() {
	cp.t.Helper()
	rec := obs.NewRecorder()
	jrnl, records, err := durable.Open(cp.dir, durable.Options{Recorder: rec, Logger: quietLogger()})
	if err != nil {
		cp.t.Fatalf("coordinator journal: %v", err)
	}
	pool := jobs.New(jobs.Config{Workers: 8, QueueSize: 64, Recorder: rec})

	members := append([]string(nil), cp.workerURLs...)
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		seen[m] = true
	}
	for _, m := range fleet.MembersFromRecords(records) {
		if !seen[m] {
			seen[m] = true
			members = append(members, m)
		}
	}
	// The retry budget is deliberately generous: every schedule's chaos
	// is bounded (faults end ~1.6s in), so the property demands the
	// fleet heal afterward — a budget that dies inside the fault window
	// would quarantine scans the design can save. ~25 attempts at a
	// 250ms cap gives the coordinator ~5s of runway past the last fault.
	fl := fleet.New(fleet.Config{
		Workers:           members,
		HeartbeatInterval: 60 * time.Millisecond,
		DeadAfter:         3,
		HedgeDelay:        60 * time.Millisecond,
		ReconnectBackoff:  jobs.RetryPolicy{Base: 20 * time.Millisecond, Cap: 120 * time.Millisecond},
		Journal:           jrnl,
		Recorder:          rec,
		Logger:            quietLogger(),
		HTTPClient:        &http.Client{Transport: cp.inj},
	})
	api := server.New(server.Config{
		Pool:             pool,
		Cache:            scancache.New(1<<20, rec),
		Recorder:         rec,
		Journal:          jrnl,
		Retry:            jobs.RetryPolicy{MaxAttempts: 25, Base: 15 * time.Millisecond, Cap: 250 * time.Millisecond},
		Dispatch:         fl.Dispatch,
		FleetStatus:      fl.Status,
		ExtraLiveRecords: fl.MemberRecords,
		Logger:           quietLogger(),
	})
	api.Replay(records)
	fl.Start()

	cp.mu.Lock()
	cp.h = api
	cp.pool = pool
	cp.fl = fl
	cp.jrnl = jrnl
	cp.mu.Unlock()
}

// restart crash-stops the coordinator (no drain, no compaction — the
// journal tail is whatever the crash left) and reboots it on the same
// journal directory: replay resubmits unsettled scans flagged for
// reconciliation, and adoption finds them still running on workers.
func (cp *coordProc) restart() {
	cp.mu.Lock()
	pool, fl, jrnl := cp.pool, cp.fl, cp.jrnl
	cp.h, cp.pool, cp.fl, cp.jrnl = nil, nil, nil, nil
	cp.mu.Unlock()
	if fl != nil {
		fl.Stop()
	}
	if pool != nil {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		pool.Shutdown(ctx)
	}
	if jrnl != nil {
		jrnl.Close()
	}
	cp.boot()
}

func (cp *coordProc) shutdown() {
	cp.front.Close()
	cp.mu.Lock()
	pool, fl, jrnl := cp.pool, cp.fl, cp.jrnl
	cp.h, cp.pool, cp.fl, cp.jrnl = nil, nil, nil, nil
	cp.mu.Unlock()
	if fl != nil {
		fl.Stop()
	}
	if pool != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		pool.Shutdown(ctx)
		cancel()
	}
	if jrnl != nil {
		jrnl.Close()
	}
}

// ---------------------------------------------------------------------------
// Harness: the fleet under test plus fault-tolerant client helpers
// (submission and polling retry through restart windows — a real
// client would too).

type harness struct {
	t       *testing.T
	workers []*workerProc
	coord   *coordProc
}

func newHarness(t *testing.T, inj *Injector) *harness {
	t.Helper()
	h := &harness{t: t}
	urls := make([]string, 0, nWorkers)
	for i := 0; i < nWorkers; i++ {
		wp := newWorkerProc(t, i)
		inj.BindTarget(i, strings.TrimPrefix(wp.url, "http://"))
		h.workers = append(h.workers, wp)
		urls = append(urls, wp.url)
	}
	h.coord = newCoordProc(t, urls, inj)
	return h
}

func (h *harness) workerDirs() []string {
	dirs := make([]string, len(h.workers))
	for i, wp := range h.workers {
		dirs[i] = wp.dir
	}
	return dirs
}

func (h *harness) teardown() {
	h.coord.shutdown()
	for _, wp := range h.workers {
		wp.shutdown()
	}
}

func (h *harness) submit(name, php string) string {
	h.t.Helper()
	body, _ := json.Marshal(map[string]any{
		"name":  name,
		"files": map[string]string{name + ".php": php},
	})
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Post(h.coord.front.URL+"/v1/scans", "application/json", bytes.NewReader(body))
		if err != nil {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		var sv scanView
		code := resp.StatusCode
		derr := json.NewDecoder(resp.Body).Decode(&sv)
		resp.Body.Close()
		if code == http.StatusOK || code == http.StatusAccepted {
			if derr != nil {
				h.t.Fatalf("submit %s: undecodable acceptance: %v", name, derr)
			}
			return sv.ID
		}
		time.Sleep(20 * time.Millisecond)
	}
	h.t.Fatalf("submission %s never accepted", name)
	return ""
}

// getScan reads one scan, retrying through transport errors (restart
// windows abort connections). A missing scan after replay would
// surface here as a poll timeout.
func (h *harness) getScan(id string, deadline time.Time) (scanView, error) {
	for {
		resp, err := http.Get(h.coord.front.URL + "/v1/scans/" + id)
		if err == nil {
			var sv scanView
			derr := json.NewDecoder(resp.Body).Decode(&sv)
			code := resp.StatusCode
			resp.Body.Close()
			if derr == nil && code == http.StatusOK {
				return sv, nil
			}
		}
		if time.Now().After(deadline) {
			return scanView{}, fmt.Errorf("scan %s unreadable past deadline (last err: %v)", id, err)
		}
		time.Sleep(15 * time.Millisecond)
	}
}

// dumpTrace logs a scan's event timeline — the first thing to read
// when a seed fails, so the stall point is visible without rerunning.
func (h *harness) dumpTrace(id string) {
	resp, err := http.Get(h.coord.front.URL + "/v1/scans/" + id + "/trace")
	if err != nil {
		h.t.Logf("trace %s: %v", id, err)
		return
	}
	defer resp.Body.Close()
	var tr struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		h.t.Logf("trace %s: %v", id, err)
		return
	}
	for _, ev := range tr.Events {
		h.t.Logf("trace %s: %s attempt=%d detail=%q err=%q", id, ev.Type, ev.Attempt, ev.Detail, ev.Err)
	}
}

func (h *harness) waitDone(id string) (scanView, error) {
	deadline := time.Now().Add(90 * time.Second)
	for {
		sv, err := h.getScan(id, deadline)
		if err != nil {
			return scanView{}, err
		}
		if settledStatus(sv.Status) {
			return sv, nil
		}
		if time.Now().After(deadline) {
			return sv, fmt.Errorf("scan %s never settled (status %s)", id, sv.Status)
		}
		time.Sleep(15 * time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// Reference: the same corpus through a standalone daemon, no fleet, no
// faults. The fleet under chaos must reproduce these bytes exactly.

func referenceResults(t *testing.T) map[string]string {
	t.Helper()
	rec := obs.NewRecorder()
	pool := jobs.New(jobs.Config{Workers: 4, QueueSize: 64, Recorder: rec})
	api := server.New(server.Config{
		Pool: pool, Cache: scancache.New(1<<20, rec), Recorder: rec,
		Logger: quietLogger(),
	})
	ts := httptest.NewServer(api)
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		pool.Shutdown(ctx)
	}()

	ref := make(map[string]string, corpusSize)
	for _, c := range corpus() {
		body, _ := json.Marshal(map[string]any{
			"name":  c.name,
			"files": map[string]string{c.name + ".php": c.php},
		})
		resp, err := http.Post(ts.URL+"/v1/scans", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sv scanView
		if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		deadline := time.Now().Add(60 * time.Second)
		for {
			r2, err := http.Get(ts.URL + "/v1/scans/" + sv.ID)
			if err != nil {
				t.Fatal(err)
			}
			var got scanView
			err = json.NewDecoder(r2.Body).Decode(&got)
			r2.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if settledStatus(got.Status) {
				if got.Status != "done" {
					t.Fatalf("reference scan %s = %s (%s)", c.name, got.Status, got.Error)
				}
				ref[c.name] = string(got.Result)
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("reference scan %s never settled", c.name)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return ref
}

// ---------------------------------------------------------------------------
// Seed selection.

func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		return []int64{v}
	}
	n := 4
	if s := os.Getenv("CHAOS_SCHEDULES"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("CHAOS_SCHEDULES=%q: want a positive integer", s)
		}
		n = v
	}
	seeds := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(i+1))
	}
	return seeds
}

// ---------------------------------------------------------------------------
// Schedule unit tests: cheap, no harness.

// TestScheduleDeterministic: the plan is a pure function of the seed,
// and every seed respects the harness invariants — worker 0 immortal,
// bounded coordinator restarts, onset-sorted.
func TestScheduleDeterministic(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 200; seed++ {
		a := NewSchedule(seed, nWorkers)
		b := NewSchedule(seed, nWorkers)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedule not deterministic:\n%v\n%v", seed, a.Faults, b.Faults)
		}
		if len(a.Faults) < minFaults || len(a.Faults) > maxFaults {
			t.Fatalf("seed %d: %d faults, want %d..%d", seed, len(a.Faults), minFaults, maxFaults)
		}
		restarts := 0
		for i, f := range a.Faults {
			if i > 0 && f.At < a.Faults[i-1].At {
				t.Fatalf("seed %d: faults not onset-sorted: %v", seed, a.Faults)
			}
			switch f.Kind {
			case WorkerKill:
				if f.Target == 0 {
					t.Fatalf("seed %d: schedule kills worker 0: %v", seed, f)
				}
			case CoordinatorRestart:
				if restarts++; restarts > maxCoordRestarts {
					t.Fatalf("seed %d: %d coordinator restarts, max %d", seed, restarts, maxCoordRestarts)
				}
				if f.Target != -1 {
					t.Fatalf("seed %d: coordinator restart targets %d", seed, f.Target)
				}
			}
			if f.Kind != CoordinatorRestart && (f.Target < 0 || f.Target >= nWorkers) {
				t.Fatalf("seed %d: fault targets worker %d of %d: %v", seed, f.Target, nWorkers, f)
			}
		}
	}
}

// TestScheduleSingleWorker: with nobody expendable, no kill is ever
// scheduled.
func TestScheduleSingleWorker(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 100; seed++ {
		for _, f := range NewSchedule(seed, 1).Faults {
			if f.Kind == WorkerKill {
				t.Fatalf("seed %d: worker kill scheduled for a 1-worker fleet", seed)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// The property.

func TestChaosProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness skipped in -short mode")
	}
	installJournalFaultHook()
	ref := referenceResults(t)
	for _, seed := range chaosSeeds(t) {
		seed := seed
		if !t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSchedule(t, seed, ref)
		}) {
			t.Logf("reproduce with: CHAOS_SEED=%d go test -race -run TestChaosProperty ./internal/chaos/", seed)
		}
	}
}

func runSchedule(t *testing.T, seed int64, ref map[string]string) {
	sched := NewSchedule(seed, nWorkers)
	for _, f := range sched.Faults {
		t.Logf("schedule: %s", f)
	}

	inj := NewInjector(sched, nil)
	h := newHarness(t, inj)
	defer h.teardown()
	defer clearJournalWindows()

	epoch := time.Now()
	inj.Start()
	setJournalWindows(sched, epoch, h.workerDirs())

	// One timeline, one goroutine: submissions staggered across the
	// schedule span interleaved with the process faults, so dispatch
	// traffic actually intersects the fault windows instead of
	// finishing before the first one opens. (Everything runs on the
	// test goroutine because kill/boot/restart may t.Fatal.)
	type timelineEvent struct {
		at    time.Duration
		fault *Fault
		item  corpusItem
	}
	var timeline []timelineEvent
	for i, c := range corpus() {
		timeline = append(timeline, timelineEvent{
			at:   time.Duration(i) * (onsetSpan / corpusSize),
			item: c,
		})
	}
	for _, f := range sched.ProcessFaults() {
		f := f
		timeline = append(timeline, timelineEvent{at: f.At, fault: &f})
	}
	sort.SliceStable(timeline, func(i, j int) bool { return timeline[i].at < timeline[j].at })

	ids := make(map[string]string, corpusSize)
	for _, ev := range timeline {
		if d := time.Until(epoch.Add(ev.at)); d > 0 {
			time.Sleep(d)
		}
		if ev.fault == nil {
			ids[ev.item.name] = h.submit(ev.item.name, ev.item.php)
			continue
		}
		t.Logf("executing: %s", ev.fault)
		switch ev.fault.Kind {
		case WorkerKill:
			wp := h.workers[ev.fault.Target]
			wp.kill()
			time.Sleep(ev.fault.Dur)
			wp.boot()
		case CoordinatorRestart:
			h.coord.restart()
		}
	}

	// The property: every accepted scan settles done, byte-identical
	// to the standalone reference, and stays settled.
	for _, c := range corpus() {
		id := ids[c.name]
		sv, err := h.waitDone(id)
		if err != nil {
			t.Errorf("seed %d: scan %s (%s): %v", seed, c.name, id, err)
			h.dumpTrace(id)
			continue
		}
		if sv.Status != "done" {
			t.Errorf("seed %d: scan %s settled %s (%s), want done", seed, c.name, sv.Status, sv.Error)
			h.dumpTrace(id)
			continue
		}
		if string(sv.Result) != ref[c.name] {
			t.Errorf("seed %d: scan %s result differs from standalone reference", seed, c.name)
		}
		again, err := h.getScan(id, time.Now().Add(10*time.Second))
		if err != nil {
			t.Errorf("seed %d: scan %s unreadable after settling: %v", seed, c.name, err)
			continue
		}
		if again.Status != "done" || string(again.Result) != string(sv.Result) {
			t.Errorf("seed %d: scan %s re-settled: status %s→%s", seed, c.name, sv.Status, again.Status)
		}
	}

	t.Logf("network faults fired: drop=%d delay=%d dup=%d blackhole=%d",
		inj.Fired(DispatchDrop), inj.Fired(DispatchDelay),
		inj.Fired(DispatchDup), inj.Fired(HeartbeatBlackhole))
}
