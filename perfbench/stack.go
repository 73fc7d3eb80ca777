package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/analyzer"
	"repro/internal/durable"
	"repro/internal/fleet"
	"repro/internal/incremental"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/scancache"
	"repro/internal/server"
)

// The daemon settings the stacks share, as cmd/phpsafed defaults them.
const (
	queueSize       = 64
	jobTimeout      = 2 * time.Minute
	cacheBytes      = 256 << 20
	maxUploadBytes  = 32 << 20
	slowScan        = 30 * time.Second
	drainTimeout    = 30 * time.Second
	coordinatorPool = 16 // phpsafed -role coordinator: max(16, 4 × fleet width)
)

// stack is one assembled service behind httptest: a standalone daemon,
// or a fleet coordinator with its in-process workers.
type stack struct {
	url        string
	board      *settleBoard
	main       *obs.Recorder   // the daemon's, or the coordinator's
	workers    []*obs.Recorder // fleet workers' recorders
	workerURLs []string        // fleet workers' addresses, in boot order
	dispatch   *dispatchLog    // fleet only
	// Teardown in phpsafed's shutdown order, in two parts: drain stops
	// intake and waits for every accepted scan to finish, so the
	// recorders are final; release then compacts and closes the journal.
	drain, release []func()
}

// quiesce runs the drain part of the teardown: afterwards nothing in the
// stack records anything more.
func (st *stack) quiesce() {
	for _, stop := range st.drain {
		stop()
	}
	st.drain = nil
}

// close tears the stack down and waits for everything it started.
func (st *stack) close() {
	st.quiesce()
	for _, stop := range st.release {
		stop()
	}
	st.release = nil
}

// daemon is one server with its pool, cache and incremental store.
type daemon struct {
	api  *server.Server
	pool *jobs.Pool
}

// newDaemon assembles a server the way cmd/phpsafed does: every layer
// on rec, logs discarded, the incremental store always on.
func newDaemon(rec *obs.Recorder, workers int, cfg server.Config) (*daemon, error) {
	inc, err := incremental.NewStore("", rec)
	if err != nil {
		return nil, fmt.Errorf("incremental store: %w", err)
	}
	pool := jobs.New(jobs.Config{Workers: workers, QueueSize: queueSize, JobTimeout: jobTimeout, Recorder: rec})
	cfg.Pool = pool
	cfg.Cache = scancache.New(cacheBytes, rec)
	cfg.Recorder = rec
	cfg.MaxUploadBytes = maxUploadBytes
	cfg.IncStore = inc
	cfg.Logger = obs.DiscardLogger()
	cfg.SlowScanThreshold = slowScan
	return &daemon{api: server.New(cfg), pool: pool}, nil
}

// drain stops intake and lets accepted scans finish.
func (d *daemon) drain() {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	d.pool.Shutdown(ctx) // past the deadline running scans are cancelled; nothing is left to wait for
}

// openJournal opens a fresh journal directory under workdir, fsyncing
// every append (phpsafed -journal DIR, -journal-sync 1).
func openJournal(workdir string, rec *obs.Recorder) (*durable.Journal, []durable.Record, func(), error) {
	dir, err := os.MkdirTemp(workdir, "journal-")
	if err != nil {
		return nil, nil, nil, fmt.Errorf("journal directory: %w", err)
	}
	j, records, err := durable.Open(dir, durable.Options{SyncEvery: 1, Recorder: rec})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, fmt.Errorf("journal: %w", err)
	}
	return j, records, func() {
		j.Close()
		os.RemoveAll(dir)
	}, nil
}

// bootStandalone assembles service-history's daemon: phpsafed -journal
// DIR with a pool of NumCPU workers.
func bootStandalone(workdir string) (*stack, error) {
	rec := obs.NewRecorder()
	st := &stack{board: newSettleBoard(), main: rec}
	journal, records, closeJournal, err := openJournal(workdir, rec)
	if err != nil {
		return nil, err
	}
	d, err := newDaemon(rec, runtime.NumCPU(), server.Config{Journal: journal, OnSettle: st.board.settle})
	if err != nil {
		closeJournal()
		return nil, err
	}
	d.api.Replay(records)
	srv := httptest.NewServer(d.api)
	st.url = srv.URL
	st.drain = []func(){d.api.StartDrain, srv.Close, d.drain}
	st.release = []func(){d.api.CompactJournal, closeJournal}
	return st, nil
}

// bootFleet assembles service-fleet: a coordinator (phpsafed -role
// coordinator -journal DIR) dispatching to two in-process workers, each
// with its own cache and incremental store and a pool of NumCPU/2
// workers, so the fleet has as many scan slots as the standalone daemon.
func bootFleet(workdir string) (*stack, error) {
	rec := obs.NewRecorder()
	st := &stack{board: newSettleBoard(), main: rec, dispatch: newDispatchLog()}
	var workerStops []func()
	for i := 0; i < 2; i++ {
		wrec := obs.NewRecorder()
		srv := httptest.NewUnstartedServer(nil)
		url := "http://" + srv.Listener.Addr().String()
		wk := fleet.NewWorker(fleet.WorkerConfig{Advertise: url, Recorder: wrec, Logger: obs.DiscardLogger()})
		d, err := newDaemon(wrec, max(runtime.NumCPU()/2, 1), server.Config{
			// The coordinator owns the attempt budget.
			Retry:    jobs.RetryPolicy{MaxAttempts: 1},
			OnSettle: wk.OnSettle,
		})
		if err != nil {
			srv.Close()
			for _, stop := range workerStops {
				stop()
			}
			return nil, err
		}
		wk.Bind(d.api, d.pool)
		srv.Config.Handler = wk.Handler()
		srv.Start()
		st.workerURLs = append(st.workerURLs, url)
		st.workers = append(st.workers, wrec)
		workerStops = append(workerStops, d.api.StartDrain, srv.Close, d.drain)
	}

	journal, records, closeJournal, err := openJournal(workdir, rec)
	if err != nil {
		for _, stop := range workerStops {
			stop()
		}
		return nil, err
	}
	fl := fleet.New(fleet.Config{
		Workers:          st.workerURLs,
		ReconnectBackoff: jobs.RetryPolicy{Base: jobs.DefaultRetryBase, Cap: jobs.DefaultRetryCap},
		Journal:          journal,
		Recorder:         rec,
		Logger:           obs.DiscardLogger(),
	})
	d, err := newDaemon(rec, coordinatorPool, server.Config{
		Journal:          journal,
		Dispatch:         st.dispatch.wrap(fl.Dispatch),
		FleetStatus:      fl.Status,
		ExtraLiveRecords: fl.MemberRecords,
		OnSettle:         st.board.settle,
	})
	if err != nil {
		closeJournal()
		for _, stop := range workerStops {
			stop()
		}
		return nil, err
	}
	d.api.Replay(records)
	fl.Start()
	srv := httptest.NewServer(fleet.NewCoordinatorHandler(d.api, fl))
	st.url = srv.URL
	st.drain = append([]func(){d.api.StartDrain, srv.Close, d.drain, fl.Stop}, workerStops...)
	st.release = []func(){d.api.CompactJournal, closeJournal}
	return st, nil
}

// settleBoard learns that scans settled from server.Config.OnSettle, so a
// client waits for exactly its scan's settle instead of polling. A settle
// that fires before the client asks (a cache hit settles inside the
// submit) is kept until it does.
type settleBoard struct {
	mu      sync.Mutex
	waiting map[string]chan string
	early   map[string]string
}

func newSettleBoard() *settleBoard {
	return &settleBoard{waiting: map[string]chan string{}, early: map[string]string{}}
}

// settle is the OnSettle hook.
func (b *settleBoard) settle(id, state string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ch, ok := b.waiting[id]; ok {
		delete(b.waiting, id)
		ch <- state // buffered: never blocks
		return
	}
	b.early[id] = state
}

// wait returns the state scan id settled in.
func (b *settleBoard) wait(ctx context.Context, id string) (string, error) {
	b.mu.Lock()
	if state, ok := b.early[id]; ok {
		delete(b.early, id)
		b.mu.Unlock()
		return state, nil
	}
	ch := make(chan string, 1)
	b.waiting[id] = ch
	b.mu.Unlock()
	select {
	case state := <-ch:
		return state, nil
	case <-ctx.Done():
		b.mu.Lock()
		delete(b.waiting, id)
		b.mu.Unlock()
		return "", ctx.Err()
	}
}

// dispatchLog times the coordinator's calls into the fleet through the
// server.Config.Dispatch hook and counts which worker answered.
type dispatchLog struct {
	mu        sync.Mutex
	calls     int64
	ns        int64
	perWorker map[string]int64
}

func newDispatchLog() *dispatchLog { return &dispatchLog{perWorker: map[string]int64{}} }

type dispatchFunc = func(ctx context.Context, req *server.DispatchRequest) (*server.DispatchResult, error)

func (l *dispatchLog) wrap(next dispatchFunc) dispatchFunc {
	return func(ctx context.Context, req *server.DispatchRequest) (*server.DispatchResult, error) {
		start := time.Now()
		res, err := next(ctx, req)
		elapsed := time.Since(start)
		l.mu.Lock()
		defer l.mu.Unlock()
		l.calls++
		l.ns += elapsed.Nanoseconds()
		if res != nil {
			l.perWorker[res.Worker]++
		}
		return res, err
	}
}

// read returns the calls, their total time and the per-worker split.
func (l *dispatchLog) read() (calls, ns int64, perWorker map[string]int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	split := make(map[string]int64, len(l.perWorker))
	for w, n := range l.perWorker {
		split[w] = n
	}
	return l.calls, l.ns, split
}

// newClient is the load generator's HTTP client: at most conns
// connections to the service.
func newClient(conns int) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxConnsPerHost = conns
	t.MaxIdleConnsPerHost = conns
	return &http.Client{Transport: t}
}

// submission is the JSON body of POST /v1/scans.
type submission struct {
	Name  string            `json:"name"`
	Files map[string]string `json:"files"`
}

func submissionOf(t *analyzer.Target) submission {
	files := make(map[string]string, len(t.Files))
	for _, f := range t.Files {
		files[f.Path] = f.Content
	}
	return submission{Name: t.Name, Files: files}
}
