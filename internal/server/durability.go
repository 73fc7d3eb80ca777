// Durability: journaling helpers, crash replay, registry retention and
// the operational endpoints (quarantine, retry, livez, readyz) that sit
// on top of the durable journal. The journal itself (format, fsync,
// compaction mechanics) lives in package durable; this file decides
// what the daemon records and how it recovers.

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/analyzer"
	"repro/internal/durable"
	"repro/internal/incremental"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// submissionPayload is the accepted record's payload: everything
// needed to re-create and re-run the scan after a crash. Files name
// each source file by path and content address; the content itself is
// in the blob records the accepted record references, as raw bytes
// (base64 in JSON), because zip submissions may carry non-UTF-8 source
// that a JSON string would mangle into U+FFFD.
type submissionPayload struct {
	Name    string                `json:"name"`
	Tool    string                `json:"tool"`
	Profile string                `json:"profile"`
	Key     string                `json:"key"`
	Created time.Time             `json:"created"`
	Files   []durable.FileRef     `json:"files"`
	Opts    *analyzer.ScanOptions `json:"opts,omitempty"`
}

// resultPayload is the completed/quarantined record's payload: the
// settled state and whatever result (possibly partial) the scan ended
// with, so replay rehydrates it byte-identically.
type resultPayload struct {
	State  scanState           `json:"state"`
	Cached bool                `json:"cached,omitempty"`
	Worker string              `json:"worker,omitempty"`
	Result *analyzer.Result    `json:"result,omitempty"`
	Inc    *incremental.Report `json:"incremental,omitempty"`
	Error  string              `json:"error,omitempty"`
}

// acceptedRecord builds the submission record for sc and the blob
// records its content needs, skipping addresses already in seen (see
// durable.FileBlobs). Marshalling the payload cannot fail (every field
// round-trips JSON); an impossible failure journals an empty payload
// rather than nothing.
func (s *Server) acceptedRecord(sc *scan, seen map[string]bool) (blobs []durable.Record, rec durable.Record) {
	blobs, refs, addrs := durable.FileBlobs(sc.Target.Files, seen)
	raw, _ := json.Marshal(submissionPayload{
		Name: sc.Target.Name, Tool: sc.Tool, Profile: sc.Profile,
		Key: sc.Key, Created: sc.Created, Opts: sc.Opts, Files: refs,
	})
	return blobs, durable.Record{Type: durable.RecAccepted, ScanID: sc.ID, Refs: addrs, Payload: raw}
}

// journalAcceptedLocked journals sc's acceptance: its new blobs, then its
// accepted record, in one append. Caller holds s.journalMu.
func (s *Server) journalAcceptedLocked(sc *scan) {
	blobs, rec := s.acceptedRecord(sc, nil)
	s.journalLocked(append(blobs, rec)...)
}

// resultPayloadLocked marshals sc's settled outcome; caller holds s.mu.
func (s *Server) resultPayloadLocked(sc *scan) json.RawMessage {
	raw, _ := json.Marshal(resultPayload{
		State: sc.State, Cached: sc.Cached, Worker: sc.Worker,
		Result: sc.Result, Inc: sc.Inc, Error: sc.Err,
	})
	return raw
}

// journal appends one lifecycle record, taking journalMu. A degraded
// journal swallows the append (the durable package counts it); the
// scan path never blocks on disk health.
func (s *Server) journal(r durable.Record) {
	if s.cfg.Journal == nil {
		return
	}
	s.journalMu.Lock()
	s.journalLocked(r)
	s.journalMu.Unlock()
}

// journalLocked appends records in one batch; caller holds
// s.journalMu. Records are stamped from the server's clock so
// journaled times agree with the flight recorder (and stay
// deterministic under a manual clock).
func (s *Server) journalLocked(recs ...durable.Record) {
	if s.cfg.Journal == nil {
		return
	}
	now := s.now()
	for i := range recs {
		if recs[i].Time.IsZero() {
			recs[i].Time = now
		}
	}
	// A failed append is counted by the journal itself.
	s.cfg.Journal.Append(recs...)
}

// maybeCompact snapshots the journal once it holds enough garbage
// (superseded, attempt and evicted-scan records) to outweigh both its
// live bytes and CompactWALBytes, so a compaction never rewrites more
// than it reclaims. Called after a scan settles, off the s.mu lock.
func (s *Server) maybeCompact() {
	if s.cfg.Journal == nil || !s.cfg.Journal.NeedsCompaction(s.cfg.CompactWALBytes) {
		return
	}
	s.CompactJournal()
}

// CompactJournal folds the live registry into a snapshot and truncates
// the WAL. The live set is rebuilt from the registry itself — an
// accepted record per tracked scan, a final record for settled ones,
// and an attempt_failed marker preserving an unsettled scan's spent
// budget, with every referenced blob once, ahead of the records — so
// compaction also garbage-collects records and blobs of evicted scans.
// The journal counts the compaction (or its failure).
func (s *Server) CompactJournal() {
	if s.cfg.Journal == nil {
		return
	}
	s.journalMu.Lock()
	defer s.journalMu.Unlock()

	s.mu.Lock()
	var blobs []durable.Record
	seen := make(map[string]bool)
	live := make([]durable.Record, 0, 2*len(s.scans))
	for _, sc := range s.scans {
		scanBlobs, accepted := s.acceptedRecord(sc, seen)
		blobs = append(blobs, scanBlobs...)
		live = append(live, accepted)
		switch sc.State {
		case stateDone, stateCancelled:
			// Time carries the original settle time through compaction so
			// replay rehydrates Finished (and the trace timeline) exactly.
			live = append(live, durable.Record{
				Type: durable.RecCompleted, ScanID: sc.ID,
				Attempt: sc.Attempts, Error: sc.Err, Time: sc.Finished,
				Payload: s.resultPayloadLocked(sc),
			})
		case stateQuarantined:
			live = append(live, durable.Record{
				Type: durable.RecQuarantined, ScanID: sc.ID,
				Attempt: sc.Attempts, Error: sc.Err, Time: sc.Finished,
				Payload: s.resultPayloadLocked(sc),
			})
		default:
			if sc.Attempts > 0 {
				live = append(live, durable.Record{
					Type: durable.RecAttemptFailed, ScanID: sc.ID,
					Attempt: sc.Attempts, Error: sc.Err,
				})
			}
		}
	}
	s.mu.Unlock()
	live = append(blobs, live...)

	if s.cfg.ExtraLiveRecords != nil {
		live = append(live, s.cfg.ExtraLiveRecords()...)
	}

	if s.cfg.Journal.Compact(live) != nil {
		return
	}
	// A scan evicted after the live set was built was retired in the
	// accounting Compact just replaced; retire it again.
	s.mu.Lock()
	for _, r := range live {
		if r.ScanID != "" && s.scans[r.ScanID] == nil {
			s.cfg.Journal.Retire(r.ScanID)
		}
	}
	s.mu.Unlock()
}

// Replay rebuilds the scan registry from a journal's replayed records
// (the second return of durable.Open). Settled scans are rehydrated —
// finished results are also re-seeded into the content cache, so
// resubmitting pre-crash content is served byte-identically — and
// unsettled ones are resubmitted with their attempt budget resumed.
// Call it once, after New and before serving traffic.
func (s *Server) Replay(records []durable.Record) (resubmitted, rehydrated, quarantined int) {
	blobs := durable.IndexBlobs(records)
	for _, st := range durable.Fold(records) {
		var sub submissionPayload
		err := json.Unmarshal(st.Accepted.Payload, &sub)
		var files []analyzer.SourceFile
		if err == nil {
			files, err = blobs.Files(sub.Files)
		}
		if err != nil {
			// An accepted record we cannot decode, or whose content is
			// missing or damaged, is unrecoverable work; count it rather
			// than guess.
			s.rec.Counter("replay_undecodable_total").Inc()
			s.log.Error("journal replay: undecodable accepted record",
				"scan_id", st.ScanID, "error", err.Error())
			continue
		}
		target := &analyzer.Target{Name: sub.Name, Files: files}
		target.HashFiles()
		sc := &scan{
			ID: st.ScanID, Tool: sub.Tool, Profile: sub.Profile,
			Key: sub.Key, Created: sub.Created, Target: target, Opts: sub.Opts,
		}

		if st.Settled() {
			var res resultPayload
			if st.Final != nil {
				if err := json.Unmarshal(st.Final.Payload, &res); err != nil {
					res = resultPayload{}
				}
				sc.Finished = st.Final.Time
				sc.Attempts = st.Final.Attempt
			}
			sc.State = res.State
			if sc.State == "" {
				// Payload lost (e.g. journaled while degraded):
				// fall back to the record type.
				if st.Phase == durable.RecQuarantined {
					sc.State = stateQuarantined
				} else {
					sc.State = stateDone
				}
			}
			sc.Result = res.Result
			sc.Inc = res.Inc
			sc.Cached = res.Cached
			sc.Worker = res.Worker
			sc.Err = res.Error
			s.mu.Lock()
			s.addScanLocked(sc)
			s.mu.Unlock()
			if sc.State == stateDone && sc.Result != nil {
				s.cfg.Cache.Put(sc.Key, sc.Result)
			}
			// Reconstruct the pre-crash timeline from the journal so the
			// trace spans both process lifetimes: acceptance and settle
			// keep their historical times, the replay marker gets the
			// boot's.
			s.recordEvent(obs.Event{Scan: sc.ID, Type: evAccepted, Time: sc.Created, Detail: sc.Target.Name})
			if !sc.Finished.IsZero() {
				s.recordEvent(obs.Event{
					Scan: sc.ID, Type: evSettled, Time: sc.Finished,
					Detail: string(sc.State), Err: sc.Err,
				})
			}
			s.recordEvent(obs.Event{
				Scan: sc.ID, Type: evReplayed,
				Detail: "rehydrated as " + string(sc.State) + " from journal",
			})
			s.log.Info("journal replay: scan rehydrated",
				"scan_id", sc.ID, "state", string(sc.State), "target", sc.Target.Name)
			if sc.State == stateQuarantined {
				quarantined++
			} else {
				rehydrated++
			}
			continue
		}

		// Unsettled: the crash interrupted it. Rebuild the engine and
		// resubmit with the journaled attempt budget already spent. The
		// resubmitted mark rides the first dispatch so a fleet layer can
		// adopt a still-running remote attempt instead of duplicating it.
		sc.State = stateQueued
		sc.Attempts = st.Attempts
		sc.queuedAt = s.now()
		sc.resubmitted = true
		s.recordEvent(obs.Event{Scan: sc.ID, Type: evAccepted, Time: sc.Created, Detail: sc.Target.Name})
		engine, _, err := s.engine(sc.Tool, sc.Profile)
		if err != nil {
			// The tool that accepted this scan no longer builds
			// (config drift across the restart): dead-letter it so the
			// submission stays visible instead of vanishing.
			s.mu.Lock()
			s.addScanLocked(sc)
			s.mu.Unlock()
			s.recordEvent(obs.Event{
				Scan: sc.ID, Type: evReplayed, Err: err.Error(),
				Detail: "engine no longer builds; quarantined",
			})
			s.log.Error("journal replay: engine no longer builds, quarantining",
				"scan_id", sc.ID, "tool", sc.Tool, "error", err.Error())
			s.settleQuarantined(sc, st.Attempts, jobs.Terminal(err))
			quarantined++
			continue
		}
		sc.Engine = engine
		s.mu.Lock()
		s.addScanLocked(sc)
		s.active[sc.Key] = sc.ID
		s.mu.Unlock()
		// Record the resubmission before the pool sees the job: a worker
		// may start the attempt immediately, and the timeline must read
		// resubmitted → queued → attempt_started.
		s.recordEvent(obs.Event{
			Scan: sc.ID, Type: evResubmitted, Attempt: st.Attempts,
			Detail: fmt.Sprintf("resubmitted with %d prior attempt(s)", st.Attempts),
		})
		s.recordEvent(obs.Event{Scan: sc.ID, Type: evQueued, Detail: "journal replay"})
		for {
			err := s.cfg.Pool.SubmitJob(s.scanJob(sc, st.Attempts))
			if err == nil {
				break
			}
			if err == jobs.ErrClosed {
				// Shut down mid-replay; the journal still owns the scan.
				return resubmitted, rehydrated, quarantined
			}
			// Queue full: replay outran the workers. Wait for a slot —
			// accepted scans are never shed.
			time.Sleep(5 * time.Millisecond)
		}
		s.rec.Counter("scans_replayed_total").Inc()
		s.log.Info("journal replay: scan resubmitted",
			"scan_id", sc.ID, "prior_attempts", st.Attempts, "target", sc.Target.Name)
		resubmitted++
	}
	return resubmitted, rehydrated, quarantined
}

// StartDrain flips readiness off ahead of shutdown: /readyz starts
// answering 503 so load balancers stop routing new submissions while
// in-flight scans finish. Open GET ?wait= long-polls answer at once.
func (s *Server) StartDrain() {
	s.mu.Lock()
	s.draining = true
	s.wakeWaitersLocked()
	s.mu.Unlock()
	s.rec.Counter("server_drains_total").Inc()
}

// addScanLocked registers sc and enforces the registry bound; caller
// holds s.mu.
func (s *Server) addScanLocked(sc *scan) {
	s.scans[sc.ID] = sc
	s.evictScansLocked()
}

// settledState reports whether state needs no further execution.
func settledState(st scanState) bool {
	switch st {
	case stateDone, stateCancelled, stateQuarantined:
		return true
	}
	return false
}

// evictScansLocked enforces ScanTTL and MaxScans over settled scans;
// queued and running scans are never evicted. Caller holds s.mu.
func (s *Server) evictScansLocked() {
	if s.cfg.ScanTTL > 0 {
		cutoff := s.now().Add(-s.cfg.ScanTTL)
		for _, sc := range s.scans {
			if settledState(sc.State) && !sc.Finished.IsZero() && sc.Finished.Before(cutoff) {
				s.evictLocked(sc)
			}
		}
	}
	for len(s.scans) > s.cfg.MaxScans {
		var victim *scan
		for _, sc := range s.scans {
			if !settledState(sc.State) {
				continue
			}
			if victim == nil || sc.Finished.Before(victim.Finished) {
				victim = sc
			}
		}
		if victim == nil {
			// Everything tracked is still queued or running; the pool's
			// bounded queue keeps this transient.
			return
		}
		s.evictLocked(victim)
	}
}

// evictLocked drops sc from the registry and retires its journal
// records, so they count toward the next compaction. Caller holds s.mu
// (lock order: s.mu before the journal's own lock).
func (s *Server) evictLocked(sc *scan) {
	delete(s.scans, sc.ID)
	if s.cfg.Journal != nil {
		s.cfg.Journal.Retire(sc.ID)
	}
	s.rec.Counter("scans_evicted_total").Inc()
}

// handleQuarantine lists dead-lettered scans, oldest first.
func (s *Server) handleQuarantine(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	views := make([]scanJSON, 0)
	for _, sc := range s.scans {
		if sc.State == stateQuarantined {
			views = append(views, sc.viewLocked())
		}
	}
	s.mu.Unlock()
	sortViewsByCreated(views)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"count":       len(views),
		"quarantined": views,
	})
}

// handleRetry resubmits a quarantined scan with a fresh attempt
// budget. Only quarantined scans are retryable: everything else is
// either still owed an execution or finished successfully.
func (s *Server) handleRetry(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sc, ok := s.scans[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		s.error(w, http.StatusNotFound, "unknown scan id")
		return
	}
	if sc.State != stateQuarantined {
		state := sc.State
		s.mu.Unlock()
		s.error(w, http.StatusConflict, fmt.Sprintf("scan is %s; only quarantined scans can be retried", state))
		return
	}
	if id, inflight := s.active[sc.Key]; inflight {
		s.mu.Unlock()
		s.error(w, http.StatusConflict, fmt.Sprintf("identical content is already in flight as scan %s", id))
		return
	}
	status, body := s.reacceptLocked(sc, "manual retry")
	s.writeJSON(w, status, body)
}

// reacceptLocked re-accepts settled scan sc, whose content is not in
// flight, with a fresh attempt budget: a new pool job and a fresh
// accepted record, which durable.Fold folds into a reopened scan. how
// labels the queued event. It returns the HTTP status and body to
// answer with: 202 and the scan's view, or an error envelope when the
// pool refuses the job (sc then keeps its settled record). Caller holds
// s.mu, which is released.
func (s *Server) reacceptLocked(sc *scan, how string) (int, any) {
	if sc.Engine == nil {
		// Scans rehydrated by replay carry no engine.
		engine, _, err := s.engine(sc.Tool, sc.Profile)
		if err != nil {
			s.mu.Unlock()
			return http.StatusInternalServerError, errorBody(err.Error())
		}
		sc.Engine = engine
	}
	settled := *sc
	sc.State = stateQueued
	sc.Attempts = 0
	sc.Err = ""
	sc.Result = nil
	sc.Inc = nil
	sc.Cached = false
	sc.Finished = time.Time{}
	sc.cancelReq = false
	sc.queuedAt = s.now()
	s.active[sc.Key] = sc.ID
	s.mu.Unlock()

	s.journalMu.Lock()
	err := s.cfg.Pool.SubmitJob(s.scanJob(sc, 0))
	if err == nil {
		s.journalAcceptedLocked(sc)
	}
	s.journalMu.Unlock()
	if err != nil {
		s.mu.Lock()
		*sc = settled
		delete(s.active, sc.Key)
		s.mu.Unlock()
		switch err {
		case jobs.ErrQueueFull:
			return http.StatusTooManyRequests, errorBody("scan queue is full, retry later")
		case jobs.ErrClosed:
			return http.StatusServiceUnavailable, errorBody("daemon is shutting down")
		default:
			return http.StatusInternalServerError, errorBody(err.Error())
		}
	}
	s.rec.Counter("scans_retry_requests_total").Inc()
	s.recordEvent(obs.Event{Scan: sc.ID, Type: evRetryRequest, Detail: string(settled.State) + " scan resubmitted with fresh budget"})
	s.recordEvent(obs.Event{Scan: sc.ID, Type: evQueued, Detail: how})
	s.log.Info("settled scan resubmitted", "scan_id", sc.ID, "state", string(settled.State), "how", how)
	s.mu.Lock()
	view := sc.viewLocked()
	s.mu.Unlock()
	return http.StatusAccepted, view
}

// handleLivez is pure liveness: if the process can answer, it is live.
func (s *Server) handleLivez(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports whether the daemon should receive new
// submissions: 503 while draining; "degraded" (still 200 — the daemon
// scans correctly, it has just lost durability) when the journal has
// failed over to in-memory mode. Every response carries live queue
// occupancy detail, so a saturating queue is visible before it turns
// into 429s. A coordinator additionally reports per-worker fleet
// health (state, inflight, last heartbeat) and degrades to 503 only
// when zero workers are reachable.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	body := map[string]any{
		"queue_depth":      s.cfg.Pool.QueueDepth(),
		"queue_capacity":   s.cfg.Pool.QueueCap(),
		"inflight_workers": s.cfg.Pool.InFlight(),
		"retry_backlog":    s.cfg.Pool.RetryBacklog(),
		"workers":          s.cfg.Pool.Workers(),
	}
	if draining {
		body["status"] = "draining"
		s.writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	if s.cfg.FleetStatus != nil {
		detail, ready := s.cfg.FleetStatus()
		body["fleet"] = detail
		if !ready {
			body["status"] = "no_workers"
			s.writeJSON(w, http.StatusServiceUnavailable, body)
			return
		}
	}
	body["status"] = "ready"
	if s.cfg.Journal != nil {
		if degraded, err := s.cfg.Journal.Degraded(); degraded {
			body["status"] = "degraded"
			if err != nil {
				body["journal_error"] = err.Error()
			} else {
				body["journal_error"] = ""
			}
		}
	}
	s.writeJSON(w, http.StatusOK, body)
}

// sortViewsByCreated orders scan views oldest first (stable listing
// for the quarantine endpoint).
func sortViewsByCreated(views []scanJSON) {
	sort.Slice(views, func(i, j int) bool { return views[i].Created.Before(views[j].Created) })
}
