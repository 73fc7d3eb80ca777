// Package fleet turns phpsafed into a horizontally scaled scan
// service: one coordinator owning the client API and the durable
// journal, N workers each running the full jobs-pool + analyzer stack
// with their own scancache and incremental store.
//
// The coordinator reuses internal/server wholesale — acceptance,
// journaling, retry budgets, in-flight dedup, trace timelines — and
// replaces only the innermost step: instead of running the engine
// locally, server.Config.Dispatch hands the attempt to this package,
// which routes the scan's routing key over a consistent-hash ring
// (ring.go) to its owning worker and executes it there via HTTP. The
// key is the plugin's lineage (tool, profile, client-given name), so
// every version of a plugin lands on the worker that holds its
// incremental artifacts; unnamed uploads route by content digest.
// Each worker's caches thus become shards of one fleet-wide tier
// rather than N duplicated copies.
//
// Failure handling composes from parts that already exist. A worker
// that stops answering heartbeats walks alive → suspect → dead
// (health.go); dispatches to it fail with retryable errors, so the
// coordinator's jobs-level retry re-runs the attempt, Dispatch
// re-picks the ring owner among live workers, and the scan lands on
// the next shard — that re-pick IS the ownership handoff, recorded in
// the scan's trace as ownership_transferred + resubmitted_to_peer.
// Coordinator crash-recovery is untouched: accepted scans are
// journaled before dispatch, so replay resubmits them with their
// attempt budget carried forward exactly as in the single-process
// daemon.
package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// Trace event types for fleet transitions, appended to the same flight
// recorder (and with the same ordering discipline) as the server's
// scan lifecycle events: an event is appended before the action it
// announces, so timelines read dispatched → (work) → settled.
const (
	// EvDispatched: the coordinator is sending this attempt to a
	// worker (Detail names the worker).
	EvDispatched = "dispatched"
	// EvHeartbeatLost: a worker stopped answering heartbeats. Appended
	// once per transition at daemon level (no scan id), and per scan
	// when an in-flight dispatch is severed by the loss.
	EvHeartbeatLost = "heartbeat_lost"
	// EvOwnershipTransferred: a scan's ring ownership moved because
	// its previous owner is unreachable (Detail: "old -> new").
	EvOwnershipTransferred = "ownership_transferred"
	// EvResubmittedToPeer: the attempt is being re-sent to the new
	// owner (always follows EvOwnershipTransferred for the same scan).
	EvResubmittedToPeer = "resubmitted_to_peer"
	// EvHedgeFired: the primary dispatch outlived the hedge delay (or
	// failed before it) and a duplicate dispatch is being sent to the
	// next ring owner (Detail names it).
	EvHedgeFired = "hedge_fired"
	// EvHedgeWon: one branch of a hedged dispatch settled first and its
	// result was taken (Detail names the winning worker).
	EvHedgeWon = "hedge_won"
	// EvHedgeCancelled: the losing branch of a hedged dispatch was
	// cancelled (Detail names the cancelled worker).
	EvHedgeCancelled = "hedge_cancelled"
	// EvAdopted: a restarted coordinator found this replayed scan on a
	// worker and attached to it instead of resubmitting (Detail: "worker
	// state", the state the worker reported).
	EvAdopted = "adopted"
	// EvWorkerJoined: a worker announced itself and entered the ring.
	// Daemon-level (no scan id); Detail names the worker.
	EvWorkerJoined = "worker_joined"
)

// Worker health states. A worker starts alive (the fleet probes
// immediately, so a configured-but-absent worker is demoted within one
// interval), turns suspect after suspectAfter consecutive misses, and
// dead after DeadAfter. Dead workers leave the dispatch ring and their
// in-flight dispatches are severed so the coordinator's retry machinery
// can hand the scans to the next owner.
const (
	StateAlive   = "alive"
	StateSuspect = "suspect"
	StateDead    = "dead"
)

// Health thresholds no deployment tunes. suspectAfter is the
// consecutive-miss count for alive→suspect. reviveAfter is the
// consecutive-success count for suspect/dead→alive: a flapping link
// must answer that many probes in a row before the worker re-enters
// the ring, so one lucky packet cannot thrash ownership back and
// forth. Suppressed revivals count in fleet_flaps_suppressed_total.
const (
	suspectAfter = 1
	reviveAfter  = 2
)

// Config shapes a coordinator's fleet.
type Config struct {
	// Workers are the worker base URLs (e.g. "http://127.0.0.1:9101").
	// They are the consistent-hash ring members, in CanonicalURL form
	// (invalid entries are logged and skipped); order is irrelevant.
	// The set may start empty when workers auto-register via the join
	// endpoint (AddWorker).
	Workers []string
	// HeartbeatInterval is the probe cadence (default 1s).
	HeartbeatInterval time.Duration
	// DeadAfter is the consecutive-miss threshold for the →dead
	// transition (values below 2 take the default, 3).
	DeadAfter int
	// HedgeDelay, when positive, arms hedged dispatch: an attempt still
	// unsettled after the delay is duplicated to the next ring owner and
	// the first result wins. Zero disables hedging.
	HedgeDelay time.Duration
	// ReconnectBackoff schedules probes of a dead worker: the same
	// jittered exponential backoff the jobs pool uses between scan
	// attempts, so a flapping worker is probed gently rather than
	// hammered every interval. Zero values take the jobs defaults
	// (100ms base, 5s cap); MaxAttempts is ignored — reconnect probing
	// never gives up.
	ReconnectBackoff jobs.RetryPolicy
	// Journal, when set, persists the member set: every AddWorker
	// appends a fleet_member record, and the server's compaction calls
	// MemberRecords to carry the set across WAL resets, so a restarted
	// coordinator rebuilds its ring before any worker re-announces.
	Journal *durable.Journal
	// Recorder receives fleet metrics and trace events (required).
	Recorder *obs.Recorder
	// Logger receives fleet lifecycle logs (nil: slog.Default()).
	Logger *slog.Logger
	// HTTPClient performs dispatches and probes (nil: a client with
	// sane fleet-internal timeouts).
	HTTPClient *http.Client
}

// workerHealth is the monitor's view of one worker.
type workerHealth struct {
	addr      string
	state     string
	misses    int       // consecutive probe/dispatch failures
	revives   int       // consecutive successes while suspect/dead
	lastBeat  time.Time // last successful heartbeat or dispatch
	nextProbe time.Time // dead workers: next reconnect attempt
	probing   bool      // a probe for this worker is in flight

	// Reported by the worker's heartbeat payload.
	inflight   int
	queueDepth int

	// dispatches maps scan id → cancel for this worker's in-flight
	// dispatch HTTP calls; severed wholesale when the worker dies.
	dispatches map[string]context.CancelFunc
}

// Fleet is the coordinator-side dispatch + liveness layer.
type Fleet struct {
	cfg    Config
	rec    *obs.Recorder
	log    *slog.Logger
	ring   *Ring
	client *http.Client

	quit chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	workers map[string]*workerHealth
	// lastOwner remembers which worker last ran a scan id, so the next
	// attempt can tell a plain retry (same owner) from a handoff.
	lastOwner map[string]string
	stopped   bool
}

// New builds a fleet over cfg.Workers. Call Start to begin heartbeat
// monitoring and Stop on shutdown.
func New(cfg Config) *Fleet {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.DeadAfter <= suspectAfter {
		cfg.DeadAfter = suspectAfter + 2
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	client := cfg.HTTPClient
	if client == nil {
		client = &http.Client{} // per-call contexts carry the timeouts
	}
	f := &Fleet{
		cfg:       cfg,
		rec:       cfg.Recorder,
		log:       log,
		client:    client,
		quit:      make(chan struct{}),
		workers:   make(map[string]*workerHealth, len(cfg.Workers)),
		lastOwner: make(map[string]string),
	}
	members := make([]string, 0, len(cfg.Workers))
	for _, raw := range cfg.Workers {
		addr, err := CanonicalURL(raw)
		if err != nil {
			log.Warn("fleet worker URL rejected", "worker", raw, "error", err.Error())
			continue
		}
		members = append(members, addr)
	}
	f.ring = NewRing(members)
	now := f.rec.Now()
	for _, addr := range f.ring.Members() {
		f.workers[addr] = &workerHealth{
			addr: addr, state: StateAlive, lastBeat: now,
			dispatches: make(map[string]context.CancelFunc),
		}
	}
	f.publishGaugesLocked()
	return f
}

// AddWorker registers a worker announced via the join endpoint: a new
// address enters the ring alive (the next heartbeat sweep demotes it if
// the announcement lied) and is journaled so the membership survives a
// coordinator restart. Re-announcements of a known member are idempotent
// and refresh nothing — liveness stays the heartbeat monitor's job.
// raw is canonicalized first, so "http://w:1/" re-announces the member
// "http://w:1". It reports whether the member was new, and an error
// (admitting nothing) when raw is not a valid base URL.
func (f *Fleet) AddWorker(raw string) (bool, error) {
	addr, err := CanonicalURL(raw)
	if err != nil {
		return false, err
	}
	f.mu.Lock()
	if _, ok := f.workers[addr]; ok {
		f.mu.Unlock()
		return false, nil
	}
	f.workers[addr] = &workerHealth{
		addr: addr, state: StateAlive, lastBeat: f.rec.Now(),
		dispatches: make(map[string]context.CancelFunc),
	}
	f.rebuildRingLocked()
	f.publishGaugesLocked()
	f.mu.Unlock()

	f.rec.Counter("fleet_joins_total").Inc()
	f.rec.Events().Append(obs.Event{Type: EvWorkerJoined, Detail: addr})
	f.log.Info("fleet worker joined", "worker", addr)
	if f.cfg.Journal != nil {
		// A failed append is counted by the journal itself.
		f.cfg.Journal.Append(durable.Record{
			Type: durable.RecFleetMember, Time: f.rec.Now(), Worker: addr,
		})
	}
	return true, nil
}

// CanonicalURL returns the one spelling of a fleet base URL that ring
// membership and dispatch paths are built from: "scheme://host", with
// scheme http or https. A trailing "/" is dropped; any other path, a
// query or a fragment is an error, since the fleet appends its own
// paths ("/internal/v1/scan") to the base.
func CanonicalURL(raw string) (string, error) {
	u, err := url.Parse(raw)
	switch {
	case err != nil:
		return "", fmt.Errorf("fleet: base URL %q: %w", raw, err)
	case u.Scheme != "http" && u.Scheme != "https":
		return "", fmt.Errorf("fleet: base URL %q: scheme must be http or https", raw)
	case u.Host == "":
		return "", fmt.Errorf("fleet: base URL %q: no host", raw)
	case u.Opaque != "" || (u.Path != "" && u.Path != "/") || u.RawQuery != "" || u.ForceQuery || u.Fragment != "":
		return "", fmt.Errorf("fleet: base URL %q: want scheme://host with no path, query or fragment", raw)
	}
	return u.Scheme + "://" + u.Host, nil
}

// MemberRecords snapshots the membership as journal records, one
// fleet_member per worker. The server's compaction appends them to every
// snapshot (Config.ExtraLiveRecords) so the member set survives WAL
// resets.
func (f *Fleet) MemberRecords() []durable.Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]durable.Record, 0, len(f.workers))
	for _, addr := range f.ring.Members() {
		out = append(out, durable.Record{Type: durable.RecFleetMember, Worker: addr})
	}
	return out
}

// MembersFromRecords extracts the journaled member set from replayed
// records (last-writer set semantics: every fleet_member record adds its
// worker). The coordinator merges it with the configured -fleet-workers
// list at boot.
func MembersFromRecords(records []durable.Record) []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range records {
		if r.Type == durable.RecFleetMember && r.Worker != "" && !seen[r.Worker] {
			seen[r.Worker] = true
			out = append(out, r.Worker)
		}
	}
	return out
}

// rebuildRingLocked reconstitutes the ring from the current member set;
// caller holds f.mu.
func (f *Fleet) rebuildRingLocked() {
	members := make([]string, 0, len(f.workers))
	for addr := range f.workers {
		members = append(members, addr)
	}
	f.ring = NewRing(members)
}

// Start launches the heartbeat monitor loop.
func (f *Fleet) Start() {
	f.wg.Add(1)
	go f.monitor()
}

// Stop halts monitoring and severs in-flight dispatches.
func (f *Fleet) Stop() {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return
	}
	f.stopped = true
	for _, w := range f.workers {
		for id, cancel := range w.dispatches {
			cancel()
			delete(w.dispatches, id)
		}
	}
	f.mu.Unlock()
	close(f.quit)
	f.wg.Wait()
}

// WorkerStatus is one worker's health as reported by /readyz.
type WorkerStatus struct {
	Addr       string    `json:"addr"`
	State      string    `json:"state"`
	Misses     int       `json:"misses,omitempty"`
	LastBeat   time.Time `json:"last_heartbeat"`
	Inflight   int       `json:"inflight"`
	QueueDepth int       `json:"queue_depth"`
	Dispatches int       `json:"dispatches_inflight"`
}

// Status reports per-worker health and whether the fleet can accept
// work (at least one worker not dead). It has the server.Config
// FleetStatus shape so /readyz embeds it directly.
func (f *Fleet) Status() (any, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]WorkerStatus, 0, len(f.workers))
	ready := false
	for _, addr := range f.ring.Members() {
		w := f.workers[addr]
		if w.state != StateDead {
			ready = true
		}
		out = append(out, WorkerStatus{
			Addr: w.addr, State: w.state, Misses: w.misses,
			LastBeat: w.lastBeat, Inflight: w.inflight,
			QueueDepth: w.queueDepth,
			Dispatches: len(w.dispatches),
		})
	}
	return map[string]any{"workers": out}, ready
}

// publishGaugesLocked refreshes fleet_workers_alive; caller holds f.mu.
func (f *Fleet) publishGaugesLocked() {
	alive := 0
	for _, w := range f.workers {
		if w.state == StateAlive {
			alive++
		}
	}
	f.rec.Gauge("fleet_workers_alive").Set(float64(alive))
}
