// Worker-side surface. A fleet worker is a complete phpsafed server —
// jobs pool, analyzer stack, scancache shard, incremental store,
// flight recorder — minus retry (MaxAttempts is forced to 1 by the
// caller so the coordinator's budget is the only one). The Worker type
// adds the fleet-internal endpoints in front of it:
//
//	POST /internal/v1/scan      accept a dispatched scan (base64 file
//	                            bytes, coordinator scan id for logs)
//	GET  /internal/v1/heartbeat liveness + load for the monitor
//	GET  /internal/v1/inflight  the dispatch table: which coordinator
//	                            scans this worker carries and how far
//	                            they have gotten (?scan=ID for one)
//
// and a worker-local dispatch journal: every accepted dispatch is
// recorded (dispatch_started with the full submission as payload)
// before the local scan is created and closed (dispatch_settled) when
// it settles. The table is what a restarted coordinator reconciles
// against to adopt still-running scans instead of resubmitting them,
// and the journal is what lets a restarted *worker* replay its own
// unfinished attempts — the coordinator's in-flight poll then finds
// the replacement scan under the same coordinator id. Replay skips a
// settled dispatch, so its records are retired as soon as it settles,
// and the journal compacts on the daemon's rule (garbage ≥ max(floor,
// live)): a long-lived worker's journal stays under 2 × live + floor.
//
// Everything else falls through to the standard API. The coordinator
// learns a dispatched scan's outcome there with a long-poll,
// GET /v1/scans/{id}?wait=, which the worker answers as soon as the
// scan settles; the same API makes a worker individually debuggable
// (trace, metrics, /debug/events).

package fleet

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/analyzer"
	"repro/internal/durable"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
)

// maxDispatchEntries bounds the worker's dispatch table; when full,
// settled entries are dropped wholesale (unsettled ones — the adoption
// working set — are never dropped).
const maxDispatchEntries = 4096

// dispatchEntry maps one coordinator scan onto this worker.
type dispatchEntry struct {
	WorkerScanID string
	State        string // queued/running until OnSettle reports terminal
}

// settledDispatchState reports whether a dispatch table state needs no
// further execution.
func settledDispatchState(s string) bool {
	switch s {
	case "done", "failed", "cancelled", "quarantined", "rejected":
		return true
	}
	return false
}

// settlePayload is the dispatch_settled record's payload.
type settlePayload struct {
	State        string `json:"state"`
	WorkerScanID string `json:"worker_scan_id,omitempty"`
}

// WorkerConfig shapes a fleet Worker.
type WorkerConfig struct {
	// Advertise is the address this worker reports in heartbeats and
	// announces to the coordinator.
	Advertise string
	// Journal, when set, is the worker-local dispatch journal. It is
	// distinct from a coordinator's scan journal: it records dispatch
	// ownership, not scan lifecycles.
	Journal *durable.Journal
	// Recorder receives the worker's fleet metrics (nil: discarded via
	// the api server's recorder conventions — pass the same recorder as
	// the server for one registry).
	Recorder *obs.Recorder
	// Logger receives dispatch journal logs (nil: slog.Default()).
	Logger *slog.Logger
}

// Worker is the fleet-facing layer of a worker daemon. Create with
// NewWorker, wire OnSettle into the server config, then Bind the built
// server and pool, Replay the dispatch journal, and serve Handler.
type Worker struct {
	cfg WorkerConfig
	log *slog.Logger

	api  *server.Server
	pool *jobs.Pool

	mu      sync.Mutex
	entries map[string]*dispatchEntry // coordinator scan id → entry
	// early catches settles that raced ahead of their entry insert
	// (cache-hit fast paths settle synchronously inside Accept).
	early map[string]string // worker scan id → state
	// live holds the dispatch_started record of every dispatch still
	// open in the journal, by coordinator scan id: a compaction
	// rewrites exactly this set.
	live map[string]durable.Record
	// compactFloor is the garbage floor of the compaction rule.
	compactFloor int64
}

// NewWorker builds the fleet layer of a worker daemon.
func NewWorker(cfg WorkerConfig) *Worker {
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	return &Worker{
		cfg:          cfg,
		log:          log.With("component", "fleet_worker"),
		entries:      make(map[string]*dispatchEntry),
		early:        make(map[string]string),
		live:         make(map[string]durable.Record),
		compactFloor: server.DefaultCompactWALBytes,
	}
}

// Bind attaches the worker's server stack. Call before Handler or
// Replay.
func (wk *Worker) Bind(api *server.Server, pool *jobs.Pool) {
	wk.api = api
	wk.pool = pool
}

// OnSettle is the server.Config.OnSettle hook: it closes the dispatch
// journal record of every table entry the settled local scan backs
// (content dedup can map several coordinator scans onto one local
// scan).
func (wk *Worker) OnSettle(workerScanID, state string) {
	wk.mu.Lock()
	matched := false
	for coordID, e := range wk.entries {
		if e.WorkerScanID != workerScanID || settledDispatchState(e.State) {
			continue
		}
		e.State = state
		matched = true
		wk.journalSettledLocked(coordID, workerScanID, state)
	}
	if !matched {
		if len(wk.early) >= maxDispatchEntries {
			wk.early = make(map[string]string)
		}
		wk.early[workerScanID] = state
	}
	wk.mu.Unlock()
}

// journalSettledLocked appends a dispatch_settled record and retires
// the dispatch: Replay never resubmits a settled dispatch, so the next
// compaction may drop both its records. Caller holds wk.mu, which also
// keeps appends out of a compaction.
func (wk *Worker) journalSettledLocked(coordID, workerScanID, state string) {
	j := wk.cfg.Journal
	if j == nil {
		return
	}
	raw, _ := json.Marshal(settlePayload{State: state, WorkerScanID: workerScanID})
	// A failed append is counted by the journal itself.
	j.Append(durable.Record{Type: durable.RecDispatchSettled, ScanID: coordID, Payload: raw})
	delete(wk.live, coordID)
	j.Retire(coordID)
	wk.maybeCompactLocked()
}

// maybeCompactLocked compacts the journal down to the open dispatches'
// started records once garbage ≥ max(floor, live), the daemon's rule.
// Caller holds wk.mu.
func (wk *Worker) maybeCompactLocked() {
	j := wk.cfg.Journal
	if !j.NeedsCompaction(wk.compactFloor) {
		return
	}
	ids := make([]string, 0, len(wk.live))
	for id := range wk.live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	recs := make([]durable.Record, 0, len(ids))
	for _, id := range ids {
		recs = append(recs, wk.live[id])
	}
	// A failed compaction is counted (and degrades) in the journal.
	j.Compact(recs)
}

// rec returns the worker's recorder (nil-safe: obs recorders accept a
// nil receiver for counters).
func (wk *Worker) rec() *obs.Recorder { return wk.cfg.Recorder }

// Handler returns the worker's HTTP surface: the fleet-internal
// endpoints in front of the full standard API.
func (wk *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /internal/v1/scan", wk.handleDispatch)
	mux.HandleFunc("GET /internal/v1/heartbeat", wk.handleHeartbeat)
	mux.HandleFunc("GET /internal/v1/inflight", wk.handleInflight)
	mux.Handle("/", wk.api)
	return mux
}

// handleDispatch accepts one coordinator dispatch: journal first (a
// crash after the record exists replays the attempt; a crash before it
// leaves the coordinator to redispatch, which worker-side content dedup
// makes safe), then the standard acceptance path, then the table
// insert.
func (wk *Worker) handleDispatch(w http.ResponseWriter, r *http.Request) {
	var wire dispatchWire
	if err := json.NewDecoder(r.Body).Decode(&wire); err != nil {
		http.Error(w, `{"error":"malformed dispatch body"}`, http.StatusBadRequest)
		return
	}

	// A re-dispatch of a coordinator scan this worker already carries
	// (coordinator retry after a severed exchange, a duplicated hedge)
	// is not a new attempt: skip the journal record, let Accept's
	// content dedup join the existing local scan.
	var raw []byte
	if wk.cfg.Journal != nil && wire.ScanID != "" {
		raw, _ = json.Marshal(wire)
	}
	wk.mu.Lock()
	e, known := wk.entries[wire.ScanID]
	isNew := !known || settledDispatchState(e.State)
	if isNew && raw != nil {
		// The live copy keeps its time through a compaction.
		r := durable.Record{
			Type: durable.RecDispatchStarted, Time: time.Now().UTC(),
			ScanID: wire.ScanID, Attempt: wire.Attempt, Payload: raw,
		}
		wk.live[wire.ScanID] = r
		wk.cfg.Journal.Append(r)
	}
	wk.mu.Unlock()

	id, status, body := wk.api.Accept(specFromWire(&wire))
	wk.note(&wire, id, status, isNew)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

// note records the outcome of one dispatch acceptance in the table and
// closes the journal record when the dispatch is already over: refused
// outright, or settled before its entry existed (a synchronous cache
// hit, or a settle that raced ahead into wk.early). isNew marks a
// dispatch whose journal record handleDispatch just opened; replays
// pass false.
func (wk *Worker) note(wire *dispatchWire, id string, status int, isNew bool) {
	if wire.ScanID == "" {
		return
	}
	wk.mu.Lock()
	defer wk.mu.Unlock()
	if id == "" || status >= http.StatusMultipleChoices {
		// Rejected (bad submission, full queue, draining): the dispatch
		// never became a scan. Close the record so a worker restart does
		// not replay a submission the coordinator already re-routed.
		if isNew {
			wk.journalSettledLocked(wire.ScanID, id, "rejected")
		}
		return
	}
	state := "queued"
	if status == http.StatusOK {
		state = "done"
	}
	if s, ok := wk.early[id]; ok {
		state = s
		delete(wk.early, id)
	}
	// The coordinator id's record is still open unless a settle already
	// closed it: a new dispatch opened a fresh one, and a replay or
	// re-dispatch is open until its entry reads settled (OnSettle closes
	// the record when it settles an entry).
	prev, carried := wk.entries[wire.ScanID]
	open := isNew || !carried || !settledDispatchState(prev.State)
	if len(wk.entries) >= maxDispatchEntries {
		for cid, e := range wk.entries {
			if settledDispatchState(e.State) {
				delete(wk.entries, cid)
			}
		}
	}
	wk.entries[wire.ScanID] = &dispatchEntry{WorkerScanID: id, State: state}
	if open && settledDispatchState(state) {
		// OnSettle fired before the entry existed (or never will, for a
		// cache hit): close the journal record here.
		wk.journalSettledLocked(wire.ScanID, id, state)
	}
}

// handleHeartbeat reports liveness and load for the coordinator's
// monitor. Load never moves ring ownership; the coordinator only
// reports it on /readyz.
func (wk *Worker) handleHeartbeat(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(heartbeatPayload{
		Advertise:  wk.cfg.Advertise,
		Inflight:   wk.pool.InFlight(),
		QueueDepth: wk.pool.QueueDepth(),
		Workers:    wk.pool.Workers(),
	})
}

// handleInflight serves the dispatch table: ?scan=ID answers one entry
// (404 when this worker does not carry the scan), no parameter lists
// everything — the reconciliation surface a restarted coordinator
// adopts from.
func (wk *Worker) handleInflight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	wk.mu.Lock()
	if scanID := r.URL.Query().Get("scan"); scanID != "" {
		e, ok := wk.entries[scanID]
		if !ok {
			wk.mu.Unlock()
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "scan not carried by this worker"})
			return
		}
		out := inflightEntry{ScanID: scanID, WorkerScanID: e.WorkerScanID, State: e.State}
		wk.mu.Unlock()
		json.NewEncoder(w).Encode(out)
		return
	}
	list := make([]inflightEntry, 0, len(wk.entries))
	for coordID, e := range wk.entries {
		list = append(list, inflightEntry{ScanID: coordID, WorkerScanID: e.WorkerScanID, State: e.State})
	}
	wk.mu.Unlock()
	json.NewEncoder(w).Encode(map[string]any{"dispatches": list})
}

// Replay rebuilds the dispatch table from the worker journal and
// resubmits every dispatch whose record was never closed: the crash
// interrupted it, so it is re-accepted locally under the same
// coordinator id. A coordinator that later reconciles (or retries)
// finds the replacement through the table; one that redispatches joins
// it through content dedup. Returns the number of replayed dispatches.
func (wk *Worker) Replay(records []durable.Record) int {
	type dispatchState struct {
		started durable.Record
		settled bool
	}
	open := make(map[string]*dispatchState)
	var order []string
	for _, r := range records {
		switch r.Type {
		case durable.RecDispatchStarted:
			if _, ok := open[r.ScanID]; !ok {
				order = append(order, r.ScanID)
			}
			open[r.ScanID] = &dispatchState{started: r}
		case durable.RecDispatchSettled:
			if st, ok := open[r.ScanID]; ok {
				st.settled = true
			}
		}
	}
	// Open reloads every record as live (retirements are not
	// journaled): retire the settled dispatches again, and only then,
	// with every open dispatch in the live set, consider compacting.
	if j := wk.cfg.Journal; j != nil {
		wk.mu.Lock()
		for _, coordID := range order {
			if st := open[coordID]; st.settled {
				j.Retire(coordID)
			} else {
				wk.live[coordID] = st.started
			}
		}
		wk.maybeCompactLocked()
		wk.mu.Unlock()
	}

	replayed := 0
	for _, coordID := range order {
		st := open[coordID]
		if st.settled {
			continue
		}
		var wire dispatchWire
		if err := json.Unmarshal(st.started.Payload, &wire); err != nil {
			wk.rec().Counter("fleet_worker_replay_undecodable_total").Inc()
			wk.log.Error("dispatch journal replay: undecodable record",
				"scan_id", coordID, "error", err.Error())
			continue
		}
		id, status := wk.resubmit(&wire)
		if id == "" {
			wk.log.Error("dispatch journal replay: resubmission rejected",
				"scan_id", coordID, "status", status)
			continue
		}
		wk.note(&wire, id, status, false)
		wk.rec().Counter("fleet_worker_replayed_total").Inc()
		wk.log.Info("dispatch journal replay: attempt resubmitted",
			"scan_id", coordID, "worker_scan_id", id)
		replayed++
	}
	return replayed
}

// resubmit re-accepts one replayed dispatch, waiting out transient
// queue-full rejections (accepted dispatches are never shed).
func (wk *Worker) resubmit(wire *dispatchWire) (string, int) {
	for {
		id, status, _ := wk.api.Accept(specFromWire(wire))
		if status != http.StatusTooManyRequests {
			return id, status
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// specFromWire converts a dispatch submission to the programmatic
// acceptance spec.
func specFromWire(wire *dispatchWire) server.SubmitSpec {
	target := &analyzer.Target{Name: wire.Name, Files: make([]analyzer.SourceFile, 0, len(wire.Files))}
	for _, f := range wire.Files {
		target.Files = append(target.Files, analyzer.SourceFile{Path: f.Path, Content: string(f.Content)})
	}
	return server.SubmitSpec{
		Name: wire.Name, Tool: wire.Tool, Profile: wire.Profile,
		Target: target, Opts: wire.Opts,
	}
}
