// Flight recorder: the scan lifecycle event timeline and the endpoints
// that expose it. Every accepted scan's transitions are appended to the
// recorder's bounded event ring (package obs); GET /v1/scans/{id}/trace
// stitches one scan's events back into an ordered timeline with the
// span tree of its last executed attempt, and GET /debug/events tails
// the global ring for ad-hoc debugging. The daemon-level latency
// histograms (queue wait, attempt duration, end-to-end settle, render
// time) are observed alongside the events they describe.

package server

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
)

// Event types of the scan lifecycle timeline. One scan's normal path
// is accepted → queued → attempt_started → settled; retries interleave
// attempt_failed → queued pairs, crash recovery replays the journal
// into journal_replayed / journal_resubmitted events, and cache reuse,
// incremental reuse and governor degradations annotate the attempt
// they happened in.
const (
	evAccepted       = "accepted"
	evRejected       = "rejected"
	evQueued         = "queued"
	evAttemptStarted = "attempt_started"
	evAttemptFailed  = "attempt_failed"
	evInterrupted    = "interrupted"
	evCacheHit       = "cache_hit"
	evJoinedInflight = "joined_inflight"
	evIncReuse       = "incremental_reuse"
	evDegraded       = "degraded"
	evCancelRequest  = "cancel_requested"
	evRetryRequest   = "retry_requested"
	evReplayed       = "journal_replayed"
	evResubmitted    = "journal_resubmitted"
	evRendered       = "rendered"
	evSettled        = "settled"
)

// recordEvent appends one lifecycle event to the flight recorder
// (no-op on a nil recorder).
func (s *Server) recordEvent(e obs.Event) {
	s.rec.Events().Append(e)
}

// eventFor maps a lifecycle record to the event it stands for on the
// timeline: accepted, attempt_started, attempt_failed (its backoff as
// the duration) or settled. The live transitions and journal replay
// both derive these events here, so a scan's live timeline and its
// replayed one agree. detail carries what the record does not: the
// target name of an accepted record, the state of a final one. Every
// other event type has no record.
func eventFor(r durable.Record, detail string) obs.Event {
	e := obs.Event{Scan: r.ScanID, Time: r.Time, Detail: detail}
	switch r.Type {
	case durable.RecAccepted:
		e.Type = evAccepted
	case durable.RecStarted:
		e.Type, e.Attempt = evAttemptStarted, r.Attempt
	case durable.RecAttemptFailed:
		e.Type, e.Attempt, e.Err, e.DurMS = evAttemptFailed, r.Attempt, r.Error, r.BackoffMS
	default: // completed or quarantined
		e.Type, e.Err = evSettled, r.Error
	}
	return e
}

// settleEvent records a scan's terminal transition from its final
// record: the settled event (eventFor, with the end-to-end time), the
// settle-time histogram, a structured log line, and the slow-scan
// timeline dump when the scan reached Config.SlowScanThreshold. It
// also wakes the GET ?wait= long-polls and fires Config.OnSettle; the
// settled state is already visible to them. No s.mu is held while
// logging: a scan's ID, Created and Target do not change.
func (s *Server) settleEvent(sc *scan, final durable.Record, state scanState) {
	elapsed := max(final.Time.Sub(sc.Created), 0)
	e := eventFor(final, string(state))
	e.DurMS = elapsed.Milliseconds()
	s.recordEvent(e)
	s.mu.Lock()
	s.wakeWaitersLocked()
	s.mu.Unlock()
	if s.cfg.OnSettle != nil {
		s.cfg.OnSettle(sc.ID, string(state))
	}
	s.rec.Observe("scan_settle_seconds", elapsed.Seconds())
	logf := s.log.Info
	if state == stateQuarantined {
		logf = s.log.Error
	}
	logf("scan settled",
		"scan_id", sc.ID, "state", string(state), "target", sc.Target.Name,
		"elapsed_ms", elapsed.Milliseconds(), "error", final.Error)
	// An outlier explains itself: its whole timeline, at warn level.
	if s.cfg.SlowScanThreshold > 0 && elapsed >= s.cfg.SlowScanThreshold {
		s.rec.Counter("scans_slow_total").Inc()
		s.log.Warn("slow scan",
			"scan_id", sc.ID, "target", sc.Target.Name, "elapsed_ms", elapsed.Milliseconds(),
			"threshold_ms", s.cfg.SlowScanThreshold.Milliseconds(),
			"timeline", s.rec.Events().ForScan(sc.ID))
	}
}

// traceJSON is the wire shape of GET /v1/scans/{id}/trace: the scan's
// identity, its ordered lifecycle timeline, and the span tree of its
// last executed attempt (absent for scans served purely from cache).
type traceJSON struct {
	ID       string      `json:"id"`
	Status   scanState   `json:"status"`
	Target   string      `json:"target"`
	Tool     string      `json:"tool"`
	Profile  string      `json:"profile"`
	Attempts int         `json:"attempts,omitempty"`
	Created  time.Time   `json:"created"`
	Finished *time.Time  `json:"finished,omitempty"`
	SettleMS int64       `json:"settle_ms,omitempty"`
	Events   []obs.Event `json:"events"`
	// Span is the last attempt's span tree (engine stages, per-file
	// timings), stitched from the recorder.
	Span *obs.SpanSnapshot `json:"span,omitempty"`
	// EventsDropped is the ring's global eviction count; non-zero means
	// early events of long-lived scans may be missing from Events.
	EventsDropped int64 `json:"events_dropped,omitempty"`
}

// handleTrace serves one scan's lifecycle timeline.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sc, ok := s.scans[r.PathValue("id")]
	var out traceJSON
	var span *obs.Span
	if ok {
		out = traceJSON{
			ID: sc.ID, Status: sc.State, Target: sc.Target.Name,
			Tool: sc.Tool, Profile: sc.Profile, Attempts: sc.Attempts,
			Created: sc.Created,
		}
		if !sc.Finished.IsZero() {
			f := sc.Finished
			out.Finished = &f
			if d := sc.Finished.Sub(sc.Created); d > 0 {
				out.SettleMS = d.Milliseconds()
			}
		}
		span = sc.span
	}
	s.mu.Unlock()
	if !ok {
		s.error(w, http.StatusNotFound, "unknown scan id")
		return
	}
	out.Events = s.rec.Events().ForScan(out.ID)
	if out.Events == nil {
		out.Events = []obs.Event{}
	}
	if span != nil {
		ss := span.Snapshot()
		out.Span = &ss
	}
	out.EventsDropped = s.rec.Events().Dropped()
	s.rec.Counter("traces_served_total").Inc()
	s.writeJSON(w, http.StatusOK, out)
}

// handleDebugEvents tails the global event ring: GET
// /debug/events?since=SEQ&limit=N returns events with Seq > since in
// append order. Pollers feed next_since back as since to read only
// what is new; dropped counts ring evictions (a gap between since and
// the first returned Seq means the tail outran the poller).
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.error(w, http.StatusBadRequest, "since must be a non-negative integer")
			return
		}
		since = n
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.error(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	events := s.rec.Events().Since(since, limit)
	if events == nil {
		events = []obs.Event{}
	}
	next := since
	if n := len(events); n > 0 {
		next = events[n-1].Seq
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"events":     events,
		"next_since": next,
		"dropped":    s.rec.Events().Dropped(),
	})
}
