// Worker-side surface. A fleet worker is a complete phpsafed server —
// jobs pool, analyzer stack, scancache shard, incremental store,
// flight recorder — minus retry (MaxAttempts is forced to 1 by the
// caller so the coordinator's budget is the only one). The Worker type
// adds the fleet-internal endpoints in front of it:
//
//	POST /internal/v1/scan      accept a dispatched scan (a dispatch
//	                            frame: header line, then raw file
//	                            bytes; see frame.go)
//	GET  /internal/v1/heartbeat liveness + load for the monitor
//	GET  /internal/v1/inflight  the dispatch table: which coordinator
//	                            scans this worker carries and how far
//	                            they have gotten (?scan=ID for one)
//
// and a worker-local dispatch journal: every accepted dispatch is
// recorded (the blobs of content the journal does not hold yet, then
// dispatch_started naming the files by path and address) before the
// local scan is created, and closed (dispatch_settled) when it
// settles. The table is what a restarted coordinator reconciles
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
	"errors"
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

// openDispatch is a dispatch whose journal record is still open: the
// record a compaction rewrites and the hashed files whose blobs it
// references.
type openDispatch struct {
	started durable.Record
	files   []analyzer.SourceFile
}

// journalStarted builds the dispatch_started record of spec, whose
// files are hashed, and the blob records it references, skipping
// addresses in seen (see durable.FileBlobs). The record carries its
// time, which a compaction keeps.
func journalStarted(scanID string, attempt int, spec server.SubmitSpec, seen map[string]bool) (blobs []durable.Record, rec durable.Record) {
	blobs, refs, addrs := durable.FileBlobs(spec.Target.Files, seen)
	raw, _ := json.Marshal(dispatchHeader{
		ScanID: scanID, Attempt: attempt, Name: spec.Name, Tool: spec.Tool,
		Profile: spec.Profile, Files: refs, Opts: spec.Opts,
	})
	return blobs, durable.Record{
		Type: durable.RecDispatchStarted, Time: time.Now().UTC(),
		ScanID: scanID, Attempt: attempt, Refs: addrs, Payload: raw,
	}
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
	// live holds every dispatch still open in the journal, by
	// coordinator scan id: a compaction rewrites exactly these records
	// and their blobs.
	live map[string]openDispatch
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
		live:         make(map[string]openDispatch),
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
// started records, each referenced blob once ahead of them, once
// garbage ≥ max(floor, live), the daemon's rule. Caller holds wk.mu.
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
	var recs []durable.Record
	seen := make(map[string]bool)
	for _, id := range ids {
		blobs, _, _ := durable.FileBlobs(wk.live[id].files, seen)
		recs = append(recs, blobs...)
	}
	for _, id := range ids {
		recs = append(recs, wk.live[id].started)
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

// handleDispatch accepts one coordinator dispatch: decode the frame,
// journal (a crash after the record exists replays the attempt; a
// crash before it leaves the coordinator to redispatch, which
// worker-side content dedup makes safe), then the standard acceptance
// path, then the table insert. The frame's files may hold up to the
// bound daemon's upload limit, the limit intake enforces on extracted
// content, and its header as much again: 413 past that, 400 for a
// malformed frame, nothing journaled either way. A coordinator with the
// same limit never sends a frame past it.
func (wk *Worker) handleDispatch(w http.ResponseWriter, r *http.Request) {
	limit := wk.api.MaxUploadBytes()
	req, err := decodeDispatch(http.MaxBytesReader(w, r.Body, 2*limit), limit)
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	spec := submitSpec(req)
	// This process's intake hash: the journal addresses the blobs by
	// it, and Accept reads it for the cache key and the planner.
	spec.Target.HashFiles()

	// A re-dispatch of a coordinator scan this worker already carries
	// (coordinator retry after a severed exchange, a duplicated hedge)
	// is not a new attempt: skip the journal record, let Accept's
	// content dedup join the existing local scan.
	wk.mu.Lock()
	e, known := wk.entries[req.ScanID]
	isNew := !known || settledDispatchState(e.State)
	if isNew && wk.cfg.Journal != nil && req.ScanID != "" {
		blobs, started := journalStarted(req.ScanID, req.Attempt, spec, nil)
		wk.live[req.ScanID] = openDispatch{started: started, files: spec.Target.Files}
		// A failed append is counted by the journal itself.
		wk.cfg.Journal.Append(append(blobs, started)...)
	}
	wk.mu.Unlock()

	id, status, body := wk.api.Accept(spec)
	wk.note(req.ScanID, id, status, isNew)
	writeJSON(w, status, body)
}

// writeJSON sends v with the given status, indented like the standard
// API's envelopes.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// note records the outcome of coordinator scan coordID's dispatch
// acceptance in the table and closes the journal record when the
// dispatch is already over: refused outright, or settled before its
// entry existed (a synchronous cache hit, or a settle that raced ahead
// into wk.early). isNew marks a dispatch whose journal record
// handleDispatch just opened; replays pass false.
func (wk *Worker) note(coordID, id string, status int, isNew bool) {
	if coordID == "" {
		return
	}
	wk.mu.Lock()
	defer wk.mu.Unlock()
	if id == "" || status >= http.StatusMultipleChoices {
		// Rejected (bad submission, full queue, draining): the dispatch
		// never became a scan. Close the record so a worker restart does
		// not replay a submission the coordinator already re-routed.
		if isNew {
			wk.journalSettledLocked(coordID, id, "rejected")
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
	prev, carried := wk.entries[coordID]
	open := isNew || !carried || !settledDispatchState(prev.State)
	if len(wk.entries) >= maxDispatchEntries {
		for cid, e := range wk.entries {
			if settledDispatchState(e.State) {
				delete(wk.entries, cid)
			}
		}
	}
	wk.entries[coordID] = &dispatchEntry{WorkerScanID: id, State: state}
	if open && settledDispatchState(state) {
		// OnSettle fired before the entry existed (or never will, for a
		// cache hit): close the journal record here.
		wk.journalSettledLocked(coordID, id, state)
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
		spec    server.SubmitSpec
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
	// Resolve each open dispatch's files. One that cannot be decoded,
	// or whose content is missing or damaged, can never replay: retire
	// it with the settled ones.
	blobs := durable.IndexBlobs(records)
	for _, coordID := range order {
		st := open[coordID]
		if st.settled {
			continue
		}
		var p dispatchHeader
		err := json.Unmarshal(st.started.Payload, &p)
		var files []analyzer.SourceFile
		if err == nil {
			files, err = blobs.Files(p.Files)
		}
		if err != nil {
			st.settled = true
			wk.rec().Counter("fleet_worker_replay_undecodable_total").Inc()
			wk.log.Error("dispatch journal replay: undecodable record",
				"scan_id", coordID, "error", err.Error())
			continue
		}
		st.spec = server.SubmitSpec{
			Name: p.Name, Tool: p.Tool, Profile: p.Profile, Opts: p.Opts,
			Target: &analyzer.Target{Name: p.Name, Files: files},
		}
		st.spec.Target.HashFiles()
		// The live copy is in the current format whatever format the
		// journal held, and keeps its time through a compaction.
		journaled := st.started.Time
		_, st.started = journalStarted(coordID, st.started.Attempt, st.spec, nil)
		st.started.Time = journaled
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
				wk.live[coordID] = openDispatch{started: st.started, files: st.spec.Target.Files}
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
		id, status := wk.resubmit(st.spec)
		if id == "" {
			wk.log.Error("dispatch journal replay: resubmission rejected",
				"scan_id", coordID, "status", status)
			continue
		}
		wk.note(coordID, id, status, false)
		wk.rec().Counter("fleet_worker_replayed_total").Inc()
		wk.log.Info("dispatch journal replay: attempt resubmitted",
			"scan_id", coordID, "worker_scan_id", id)
		replayed++
	}
	return replayed
}

// resubmit re-accepts one replayed dispatch, waiting out transient
// queue-full rejections (accepted dispatches are never shed).
func (wk *Worker) resubmit(spec server.SubmitSpec) (string, int) {
	for {
		id, status, _ := wk.api.Accept(spec)
		if status != http.StatusTooManyRequests {
			return id, status
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// submitSpec converts a dispatch to the programmatic acceptance spec.
func submitSpec(req *server.DispatchRequest) server.SubmitSpec {
	return server.SubmitSpec{
		Name: req.Name, Tool: req.Tool, Profile: req.Profile,
		Target: req.Target, Opts: req.Opts,
	}
}
