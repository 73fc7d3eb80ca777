// Package server exposes the scan pipeline as an HTTP API — the
// phpsafed daemon's request layer. It turns the paper's one-shot batch
// analyzer into a service: plugins are uploaded, queued onto a bounded
// worker pool (package jobs), computed at most once per content
// address (package scancache) and served in any of the repository's
// report formats (package report).
//
// Endpoints:
//
//	POST /v1/scans             submit a plugin (JSON file map or zip);
//	                           returns 200 with the result when cached,
//	                           202 with a job id when queued, 429 when
//	                           the queue is full. The JSON body may
//	                           carry per-scan budget overrides
//	                           (deadline_ms, max_parse_depth, max_steps,
//	                           max_findings, file_slice_ms), clamped to
//	                           the server's configured caps.
//	POST /v1/scans/{id}/cancel cancel a queued or running scan; the
//	                           scan settles in the "cancelled" state
//	                           and its worker is freed at the next
//	                           governor checkpoint
//	GET  /v1/scans/{id}        job status; ?format=json|sarif|html
//	                           renders a finished scan's report;
//	                           ?wait=DURATION holds the answer until
//	                           the scan settles (at most MaxScanWait)
//	POST /v1/scans/{id}/retry  resubmit a quarantined scan with a
//	                           fresh attempt budget
//	GET  /v1/quarantine        list dead-lettered scans
//	GET  /healthz              combined health plus queue/cache/journal
//	                           occupancy
//	GET  /livez                liveness only (always ok while serving)
//	GET  /readyz               readiness: 503 while draining, a
//	                           "degraded" status when the scan journal
//	                           has failed to in-memory mode
//	GET  /v1/scans/{id}/trace  the scan's flight-recorder timeline:
//	                           every lifecycle event (accepted, queued,
//	                           attempts with queue wait and backoff,
//	                           cache/incremental reuse, degradations,
//	                           journal replay, settle) plus the last
//	                           attempt's span tree
//	GET  /debug/events         tail of the global event ring
//	                           (?since=SEQ&limit=N)
//	GET  /metrics              obs registry (Prometheus text;
//	                           ?format=json)
//
// When Config.Journal is set, every scan lifecycle transition is
// journaled (acceptance before the client's 202, a settle just after
// it becomes visible; a crash in that gap re-runs the scan on replay,
// with an identical result), and Replay rebuilds the
// registry after a crash: finished scans are rehydrated from their
// persisted results (and re-seeded into the cache, so resubmitting
// pre-crash content stays byte-identical), unsettled scans are
// resubmitted, and quarantined scans stay visible for manual retry.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/analyzer"
	"repro/internal/durable"
	"repro/internal/eval"
	"repro/internal/evolution"
	"repro/internal/incremental"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/rulepack"
	"repro/internal/scancache"
	"repro/internal/taint"
	"repro/internal/version"
)

// DefaultMaxUploadBytes bounds one submission body (32 MiB) when the
// config leaves it unset.
const DefaultMaxUploadBytes = 32 << 20

// Config wires a Server to its pool, cache and instrumentation.
type Config struct {
	// Pool runs accepted scans. Required.
	Pool *jobs.Pool
	// Cache stores results by content address. Required.
	Cache *scancache.Cache
	// Recorder (which may be nil) receives the HTTP metrics: the
	// httpd_requests_total_<route> counters, the
	// httpd_latency_seconds_<route> histograms and the scans_in_flight
	// gauge, alongside whatever the pool, cache and engines record.
	Recorder *obs.Recorder
	// MaxUploadBytes bounds one submission body
	// (DefaultMaxUploadBytes when non-positive).
	MaxUploadBytes int64
	// BuildTool constructs the engine for a submission; the default
	// delegates to eval.BuildTool with the recorder threaded in. Tests
	// substitute slow or failing analyzers here.
	BuildTool func(tool, profile string, rec *obs.Recorder) (analyzer.Analyzer, error)
	// Fingerprint prefixes every cache key; it defaults to
	// version.Version so a tool upgrade invalidates cached results.
	Fingerprint string
	// IncStore, when set, enables incremental analysis for phpSAFE
	// scans: per-file artifacts from earlier scans of the same plugin
	// are reused when their dependency component is unchanged, so
	// re-submitting a new plugin version re-analyzes only what changed.
	// The scan record then carries the reuse report.
	IncStore *incremental.Store
	// Budgets caps the resource budgets any single scan may run under.
	// Each dimension is both the default for requests that leave it
	// unset and the ceiling for requests that override it: a request
	// can tighten a budget but never loosen it past the cap. Zero
	// fields fall back to the analyzer package defaults (durations:
	// disabled).
	Budgets analyzer.ScanOptions
	// Journal, when set, makes accepted scans durable: lifecycle
	// transitions are journaled and Replay recovers them after a
	// crash. A nil Journal runs fully in-memory, as before.
	Journal *durable.Journal
	// Retry shapes each scan's attempt budget and backoff schedule
	// (zero value: jobs package defaults — 3 attempts, 100ms base,
	// 5s cap).
	Retry jobs.RetryPolicy
	// MaxScans bounds the registry: when tracked scans exceed it, the
	// oldest finished ones are evicted (DefaultMaxScans when 0;
	// queued/running scans are never evicted). Journal replay honours
	// the same bound.
	MaxScans int
	// ScanTTL, when positive, additionally evicts finished scans older
	// than this at insertion sweeps.
	ScanTTL time.Duration
	// CompactWALBytes is the minimum garbage (superseded, attempt and
	// evicted-scan records) the journal must hold before a scan's settle
	// triggers a snapshot+compaction; the garbage must also outweigh the
	// live bytes (DefaultCompactWALBytes when 0).
	CompactWALBytes int64
	// Logger receives structured scan lifecycle logs (accept, attempt,
	// retry, settle, replay), each line carrying scan_id and component
	// attrs. Nil discards them.
	Logger *slog.Logger
	// SlowScanThreshold, when positive, makes the daemon log a scan's
	// full flight-recorder timeline at warn level whenever its
	// end-to-end time (accept to settle) reaches the threshold.
	SlowScanThreshold time.Duration
	// NewID generates scan ids (random hex when nil); tests pin it for
	// deterministic traces.
	NewID func() string
	// Dispatch, when set, turns this server into a fleet coordinator:
	// instead of running an accepted scan's engine locally, each attempt
	// hands the scan to Dispatch (the fleet dispatcher routes it to a
	// worker by consistent hash of the content digest and returns the
	// worker's result). Everything else — journal, retry budget, cache,
	// in-flight dedup, traces — is unchanged: a failed dispatch is a
	// failed attempt, retried with backoff and re-routed, and an
	// interrupted dispatch settles nothing so journal replay re-owns it.
	Dispatch func(ctx context.Context, req *DispatchRequest) (*DispatchResult, error)
	// FleetStatus, when set, contributes per-worker fleet health to
	// /readyz. ready=false (zero workers reachable) turns readiness
	// into 503; detail is embedded under the "fleet" key.
	FleetStatus func() (detail any, ready bool)
	// OnSettle, when set, fires after every live terminal transition
	// (done, cancelled, quarantined) with the scan id and final state;
	// replay-rehydrated settles (which happened in a previous process
	// lifetime) do not fire it.
	OnSettle func(scanID, state string)
	// ExtraLiveRecords, when set, contributes additional records to
	// every journal compaction's live set — state owned by a layer
	// above the scan registry (the fleet's member set) that must
	// survive the WAL reset.
	ExtraLiveRecords func() []durable.Record
}

// DispatchRequest is one scan attempt handed to a fleet dispatcher.
type DispatchRequest struct {
	// ScanID is the coordinator's scan id (trace events key off it).
	ScanID string
	// Key is the routing key the dispatcher hashes onto its ring. A
	// named submission routes by its lineage (tool, profile and the
	// client's name for the plugin), so every version of one plugin
	// reaches the worker that holds its incremental artifacts; an
	// unnamed one routes by its content digest, which spreads anonymous
	// uploads across the workers. It is not the cache key: exact
	// resubmissions are answered from the coordinator's cache by digest.
	Key string
	// Attempt is the 1-based attempt number this dispatch executes.
	Attempt int
	// Resubmitted marks an attempt born from journal replay: the scan
	// was accepted by a previous coordinator process and may already be
	// running on a worker, which carries it under ScanID. A fleet
	// dispatcher should ask the workers for that id and adopt a live
	// scan rather than start a duplicate one.
	Resubmitted bool
	// Name, Tool, Profile and Opts identify the submission exactly as
	// the worker must run it; Opts carries the coordinator-clamped
	// effective budgets.
	Name    string
	Tool    string
	Profile string
	Target  *analyzer.Target
	Opts    *analyzer.ScanOptions
}

// DispatchResult is a worker's settled answer to one dispatch.
type DispatchResult struct {
	// Worker is the address of the worker that computed the result.
	Worker string
	// Result is the worker's scan result, byte-identical (after the
	// JSON round trip) to what a standalone daemon would have produced.
	Result *analyzer.Result
	// Inc is the worker's incremental-reuse report, when its sharded
	// artifact store reused per-file work.
	Inc *incremental.Report
}

// MaxScanWait caps how long GET /v1/scans/{id}?wait= holds its answer
// for an unsettled scan; the caller asks again if it is still running.
const MaxScanWait = 30 * time.Second

// unnamedTarget is the name a submission without one is labelled
// with. Such a submission has no lineage to route by.
const unnamedTarget = "upload"

// DefaultMaxScans bounds the scan registry when Config.MaxScans is
// unset: enough for a day of steady scanning, small enough that a
// long-lived daemon's memory stays flat.
const DefaultMaxScans = 4096

// DefaultCompactWALBytes is the garbage floor below which the journal
// is never compacted.
const DefaultCompactWALBytes = 4 << 20

// scanState is a job's lifecycle position.
type scanState string

const (
	stateQueued      scanState = "queued"
	stateRunning     scanState = "running"
	stateDone        scanState = "done"
	stateCancelled   scanState = "cancelled"
	stateQuarantined scanState = "quarantined"
)

// scan is one submission's record; all fields are guarded by
// Server.mu after construction.
type scan struct {
	ID       string
	State    scanState
	Tool     string
	Profile  string
	Key      string
	Cached   bool
	Created  time.Time
	Finished time.Time
	Target   *analyzer.Target
	Engine   analyzer.Analyzer
	Opts     *analyzer.ScanOptions
	Result   *analyzer.Result
	Inc      *incremental.Report
	Err      string
	Attempts int
	// Worker is the fleet worker that computed the result (coordinator
	// role only; empty in standalone mode or before the first dispatch
	// succeeds).
	Worker string

	// queuedAt is when the scan (re-)entered the queue: acceptance,
	// replay resubmission, or the projected end of a retry backoff.
	// Attempt starts measure queue wait against it.
	queuedAt time.Time
	// span is the span tree of the scan's last executed attempt,
	// stitched into the trace endpoint's response.
	span *obs.Span

	// resubmitted marks a scan re-owned by journal replay; the first
	// dispatch after replay carries it so the fleet layer can adopt a
	// still-running remote attempt instead of duplicating it. Cleared
	// after that first dispatch.
	resubmitted bool

	// cancelReq marks a cancellation request; set while queued it makes
	// runScan settle immediately, set while running it is paired with a
	// call to cancel.
	cancelReq bool
	// cancel aborts the running scan's context; non-nil only while the
	// scan is actually running on a worker.
	cancel context.CancelFunc
}

// Server is the daemon's HTTP handler. Create with New.
type Server struct {
	cfg Config
	rec *obs.Recorder
	log *slog.Logger
	mux *http.ServeMux

	mu    sync.Mutex
	scans map[string]*scan
	// active maps a cache key to the queued/running scan computing it,
	// so a duplicate submission joins the existing job instead of
	// occupying a second queue slot. An entry survives retries and is
	// removed only when the scan settles.
	active map[string]string
	// draining flips readiness off ahead of shutdown (StartDrain).
	draining bool
	// settleWake is closed and replaced whenever a scan settles or the
	// server starts draining, waking every GET ?wait= long-poll so it
	// can re-read its scan.
	settleWake chan struct{}

	// journalMu serializes journal appends against compaction's
	// build-live-set-and-truncate, so no lifecycle record can fall
	// between a snapshot and the WAL reset. Lock order: journalMu
	// before mu, never the reverse.
	journalMu sync.Mutex

	// enginesMu guards engines, the built engine of each tool|profile
	// spec (see engine). Lock order: mu before enginesMu.
	enginesMu sync.Mutex
	engines   map[string]builtEngine
}

// maxEngines caps the engine memo; specs past it are built per
// submission and not kept.
const maxEngines = 64

// builtEngine is one memoized engine with its configuration
// fingerprint.
type builtEngine struct {
	engine      analyzer.Analyzer
	fingerprint string
}

// engine returns the engine for (tool, profile) and its fingerprint
// (engineFingerprint), building it once per server: engines are
// immutable, so every submission of one spec shares one, and a spec's
// rule packs compile once. A failed build is not kept.
func (s *Server) engine(tool, profile string) (analyzer.Analyzer, string, error) {
	key := tool + "|" + profile
	s.enginesMu.Lock()
	defer s.enginesMu.Unlock()
	if b, ok := s.engines[key]; ok {
		return b.engine, b.fingerprint, nil
	}
	eng, err := s.cfg.BuildTool(tool, profile, s.rec)
	if err != nil {
		return nil, "", err
	}
	b := builtEngine{engine: eng, fingerprint: engineFingerprint(eng)}
	if len(s.engines) < maxEngines {
		s.engines[key] = b
	}
	return b.engine, b.fingerprint, nil
}

// MaxUploadBytes is the submission body cap this server enforces
// (Config.MaxUploadBytes with its default applied).
func (s *Server) MaxUploadBytes() int64 { return s.cfg.MaxUploadBytes }

// New builds a Server over cfg, filling defaults.
func New(cfg Config) *Server {
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if cfg.BuildTool == nil {
		cfg.BuildTool = func(tool, profile string, rec *obs.Recorder) (analyzer.Analyzer, error) {
			return eval.BuildTool(tool, profile, eval.ToolOptions{Recorder: rec})
		}
	}
	if cfg.Fingerprint == "" {
		cfg.Fingerprint = version.Version
	}
	if cfg.MaxScans <= 0 {
		cfg.MaxScans = DefaultMaxScans
	}
	if cfg.CompactWALBytes <= 0 {
		cfg.CompactWALBytes = DefaultCompactWALBytes
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.DiscardLogger()
	}
	if cfg.NewID == nil {
		cfg.NewID = newID
	}
	s := &Server{
		cfg:        cfg,
		rec:        cfg.Recorder,
		log:        cfg.Logger.With("component", "server"),
		mux:        http.NewServeMux(),
		scans:      make(map[string]*scan),
		active:     make(map[string]string),
		settleWake: make(chan struct{}),
		engines:    make(map[string]builtEngine),
	}
	s.mux.HandleFunc("POST /v1/scans", s.instrument("scans_submit", s.handleSubmit))
	s.mux.HandleFunc("POST /v1/scans/{id}/cancel", s.instrument("scans_cancel", s.handleCancel))
	s.mux.HandleFunc("POST /v1/scans/{id}/retry", s.instrument("scans_retry", s.handleRetry))
	s.mux.HandleFunc("GET /v1/scans/{id}", s.instrument("scans_get", s.handleGet))
	s.mux.HandleFunc("GET /v1/scans/{id}/trace", s.instrument("scans_trace", s.handleTrace))
	s.mux.HandleFunc("GET /debug/events", s.instrument("debug_events", s.handleDebugEvents))
	s.mux.HandleFunc("GET /v1/quarantine", s.instrument("quarantine", s.handleQuarantine))
	s.mux.HandleFunc("GET /v1/rulepacks", s.instrument("rulepacks", s.handleRulepacks))
	s.mux.HandleFunc("GET /v1/diffs", s.instrument("diffs", s.handleDiff))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /livez", s.instrument("livez", s.handleLivez))
	s.mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// now reads the recorder's clock so scan lifecycle times (and thus
// trace timelines) are deterministic under obs.ManualClock in tests;
// a nil recorder falls back to the system clock.
func (s *Server) now() time.Time { return s.rec.Now() }

// instrument wraps a handler with the per-route counter and latency
// histogram.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		s.rec.Counter("httpd_requests_total_" + route).Inc()
		s.rec.Observe("httpd_latency_seconds_"+route, time.Since(start).Seconds())
	}
}

// budgetJSON is the wire shape of a scan's effective budgets.
// Durations are milliseconds; zero durations mean "no limit" and are
// omitted. Integer budgets are always concrete (defaults resolved);
// negative means unlimited.
type budgetJSON struct {
	DeadlineMS    int64 `json:"deadline_ms,omitempty"`
	MaxParseDepth int   `json:"max_parse_depth,omitempty"`
	MaxSteps      int64 `json:"max_steps,omitempty"`
	MaxFindings   int   `json:"max_findings,omitempty"`
	FileSliceMS   int64 `json:"file_slice_ms,omitempty"`
	FileWorkers   int   `json:"file_workers,omitempty"`
}

// budgetView renders effective ScanOptions for the wire.
func budgetView(o *analyzer.ScanOptions) *budgetJSON {
	if o == nil {
		return nil
	}
	return &budgetJSON{
		DeadlineMS:    o.Deadline.Milliseconds(),
		MaxParseDepth: o.EffectiveMaxParseDepth(),
		MaxSteps:      o.EffectiveMaxSteps(),
		MaxFindings:   o.EffectiveMaxFindings(),
		FileSliceMS:   o.FileTimeSlice.Milliseconds(),
		FileWorkers:   o.FileWorkers,
	}
}

// scanJSON is the wire shape of one scan record.
type scanJSON struct {
	ID       string              `json:"id"`
	Status   scanState           `json:"status"`
	Tool     string              `json:"tool"`
	Profile  string              `json:"profile"`
	Target   string              `json:"target"`
	Cached   bool                `json:"cached"`
	Created  time.Time           `json:"created"`
	Finished *time.Time          `json:"finished,omitempty"`
	Attempts int                 `json:"attempts,omitempty"`
	Worker   string              `json:"worker,omitempty"`
	Budgets  *budgetJSON         `json:"budgets,omitempty"`
	Result   *analyzer.Result    `json:"result,omitempty"`
	Inc      *incremental.Report `json:"incremental,omitempty"`
	Error    string              `json:"error,omitempty"`
}

// viewLocked renders a scan for the wire; caller holds s.mu.
func (sc *scan) viewLocked() scanJSON {
	v := scanJSON{
		ID:       sc.ID,
		Status:   sc.State,
		Tool:     sc.Tool,
		Profile:  sc.Profile,
		Target:   sc.Target.Name,
		Cached:   sc.Cached,
		Created:  sc.Created,
		Attempts: sc.Attempts,
		Worker:   sc.Worker,
		Budgets:  budgetView(sc.Opts),
		Result:   sc.Result,
		Inc:      sc.Inc,
		Error:    sc.Err,
	}
	if !sc.Finished.IsZero() {
		f := sc.Finished
		v.Finished = &f
	}
	return v
}

// submitRequest is the JSON submission body.
type submitRequest struct {
	// Name labels the target (default "upload").
	Name string `json:"name"`
	// Tool picks the engine: phpsafe (default), rips or pixy.
	Tool string `json:"tool"`
	// Profile picks the configuration: a rule-pack spec, i.e. a
	// comma-separated list of pack names (default "wordpress"; see
	// GET /v1/rulepacks for the available packs).
	Profile string `json:"profile"`
	// RulePacks, when non-empty, overrides Profile with an explicit
	// pack list: ["wordpress","security-extended"] scans with both.
	RulePacks []string `json:"rule_packs"`
	// Files maps relative paths to PHP source text; non-PHP paths are
	// ignored, matching the directory loader.
	Files map[string]string `json:"files"`

	// Per-scan budget overrides. Each may tighten the server's
	// configured cap but never exceed it; unset (zero) fields take the
	// cap itself. Durations are milliseconds.
	DeadlineMS    int64 `json:"deadline_ms"`
	MaxParseDepth int   `json:"max_parse_depth"`
	MaxSteps      int64 `json:"max_steps"`
	MaxFindings   int   `json:"max_findings"`
	FileSliceMS   int64 `json:"file_slice_ms"`
	// FileWorkers sizes the intra-scan worker pool (0 takes the server
	// default, 1 forces a serial scan). It is a throughput knob, not a
	// budget: results are identical at any worker count.
	FileWorkers int `json:"file_workers"`
}

// scanOptions converts the request's budget overrides to ScanOptions
// (nil when no override was given).
func (r *submitRequest) scanOptions() *analyzer.ScanOptions {
	if r.DeadlineMS == 0 && r.MaxParseDepth == 0 && r.MaxSteps == 0 &&
		r.MaxFindings == 0 && r.FileSliceMS == 0 && r.FileWorkers == 0 {
		return nil
	}
	return &analyzer.ScanOptions{
		Deadline:      time.Duration(r.DeadlineMS) * time.Millisecond,
		MaxParseDepth: r.MaxParseDepth,
		MaxSteps:      r.MaxSteps,
		MaxFindings:   r.MaxFindings,
		FileTimeSlice: time.Duration(r.FileSliceMS) * time.Millisecond,
		FileWorkers:   r.FileWorkers,
	}
}

// tighterLimit picks the stricter of two integer budgets where
// negative means unlimited (callers resolve zero-means-default first).
func tighterLimit(a, b int64) int64 {
	if a < 0 {
		return b
	}
	if b < 0 || a < b {
		return a
	}
	return b
}

// tighterDuration picks the stricter of two durations where <= 0
// means no limit.
func tighterDuration(a, b time.Duration) time.Duration {
	if a <= 0 {
		return b
	}
	if b <= 0 || a < b {
		return a
	}
	return b
}

// effectiveBudgets clamps a request's overrides (which may be nil)
// against the server caps, resolving integer defaults so the result
// states the concrete budgets the scan runs under.
func (s *Server) effectiveBudgets(req *analyzer.ScanOptions) *analyzer.ScanOptions {
	caps := &s.cfg.Budgets
	var r analyzer.ScanOptions
	if req != nil {
		r = *req
	}
	fw := r.FileWorkers
	if fw <= 0 {
		// Not a cap: the request either picks a pool size or inherits
		// the server's configured default (0 = every core).
		fw = caps.FileWorkers
	}
	return &analyzer.ScanOptions{
		Deadline:      tighterDuration(r.Deadline, caps.Deadline),
		MaxParseDepth: int(tighterLimit(int64(r.EffectiveMaxParseDepth()), int64(caps.EffectiveMaxParseDepth()))),
		MaxSteps:      tighterLimit(r.EffectiveMaxSteps(), caps.EffectiveMaxSteps()),
		MaxFindings:   int(tighterLimit(int64(r.EffectiveMaxFindings()), int64(caps.EffectiveMaxFindings()))),
		FileTimeSlice: tighterDuration(r.FileTimeSlice, caps.FileTimeSlice),
		FileWorkers:   fw,
	}
}

// handleSubmit accepts a plugin, serves it from cache when possible,
// and otherwise queues a scan job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := s.parseSubmission(r)
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.error(w, status, err.Error())
		return
	}
	s.Submit(w, SubmitSpec{
		Name:    req.Name,
		Tool:    req.Tool,
		Profile: req.Profile,
		Target:  &analyzer.Target{Name: req.Name, Files: filesFromMap(req.Files)},
		Opts:    req.scanOptions(),
	})
}

// SubmitSpec is a programmatic submission: POST /v1/scans with the
// HTTP parsing already done. The fleet worker's dispatch endpoint uses
// it so file content arrives as raw bytes (never mangled through a
// JSON string) and budgets arrive pre-clamped by the coordinator.
type SubmitSpec struct {
	// ID, when set, names the scan instead of a random id: a fleet
	// worker accepts each dispatch under the coordinator's scan id, so
	// the coordinator finds it there, and a restarted worker replays it
	// under that id. It must pass CheckScanID. See Accept for how a
	// submission naming a scan this server already holds is answered.
	ID string
	// Name labels the target (default "upload").
	Name string
	// Tool picks the engine (default "phpsafe").
	Tool string
	// Profile is the rule-pack spec (default "wordpress").
	Profile string
	// Target carries the PHP sources to scan.
	Target *analyzer.Target
	// Opts are per-scan budget overrides, clamped against the server's
	// caps exactly like request overrides (nil: the caps themselves).
	Opts *analyzer.ScanOptions
}

// Submit accepts spec exactly like POST /v1/scans — cache fast path,
// in-flight dedup, journaled acceptance, 202/200/429 — and writes the
// scan envelope to w.
func (s *Server) Submit(w http.ResponseWriter, spec SubmitSpec) {
	_, status, body := s.Accept(spec)
	s.writeJSON(w, status, body)
}

// Accept runs the full submission pipeline — cache fast path, in-flight
// dedup, journaled acceptance — and returns the accepted (or joined)
// scan id, the HTTP status a handler should answer with, and the
// response body. id is "" when the submission was rejected outright.
//
// A submission whose spec.ID names a scan this server holds is answered
// from that scan: 202 and its view while it is queued or running (the
// submission joins it), 200 and its result once done, and a cancelled
// or quarantined one is re-accepted under the same id with a fresh
// attempt budget, as POST /v1/scans/{id}/retry does. Any other
// submission takes the cache, in-flight-join or new-scan path, and a
// new scan is named spec.ID when it is set.
func (s *Server) Accept(spec SubmitSpec) (id string, status int, body any) {
	if err := CheckScanID(spec.ID); err != nil {
		return "", http.StatusBadRequest, errorBody(err.Error())
	}
	if spec.Name == "" {
		spec.Name = unnamedTarget
	}
	if spec.Tool == "" {
		spec.Tool = "phpsafe"
	}
	if spec.Profile == "" {
		spec.Profile = "wordpress"
	}
	req := &spec
	target := spec.Target
	if target == nil || len(target.Files) == 0 {
		return "", http.StatusBadRequest, errorBody("no .php files in submission")
	}
	if target.Name == "" {
		target.Name = spec.Name
	}
	engine, engineFP, err := s.engine(req.Tool, req.Profile)
	if err != nil {
		return "", http.StatusBadRequest, errorBody(err.Error())
	}
	// Intake: the cache key, the planner and the journal all read these
	// addresses, so each file is hashed once here.
	target.HashFiles()
	opts := s.effectiveBudgets(req.Opts)
	key := scancache.Key(target, fmt.Sprintf("%s|%s|%s|%s|%s",
		s.cfg.Fingerprint, req.Tool, req.Profile, engineFP, opts.BudgetKey()))
	newID := spec.ID
	if newID == "" {
		newID = s.cfg.NewID()
	} else if id, status, body, ok := s.acceptNamed(spec.ID); ok {
		return id, status, body
	}

	// Fast path: the content has been scanned before.
	if res, ok := s.cfg.Cache.Get(key); ok {
		now := s.now()
		sc := &scan{
			ID: newID, State: stateDone, Tool: req.Tool, Profile: req.Profile,
			Key: key, Cached: true, Created: now, Finished: now,
			Target: target, Opts: opts, Result: res,
		}
		s.mu.Lock()
		s.addScanLocked(sc)
		view := sc.viewLocked()
		s.mu.Unlock()
		s.rec.Counter("scans_served_from_cache_total").Inc()
		s.recordEvent(obs.Event{Scan: sc.ID, Type: evAccepted, Detail: sc.Target.Name})
		s.recordEvent(obs.Event{Scan: sc.ID, Type: evCacheHit, Detail: "served from result cache"})
		s.settleEvent(sc, stateDone, "", now, now)
		return sc.ID, http.StatusOK, view
	}

	// Duplicate of an in-flight submission: answer with the existing
	// job instead of spending a second queue slot on identical work.
	s.mu.Lock()
	if id, ok := s.active[key]; ok {
		view := s.scans[id].viewLocked()
		s.mu.Unlock()
		s.rec.Counter("scans_joined_inflight_total").Inc()
		s.recordEvent(obs.Event{Scan: id, Type: evJoinedInflight, Detail: "duplicate submission joined"})
		return id, http.StatusAccepted, view
	}
	now := s.now()
	sc := &scan{
		ID: newID, State: stateQueued, Tool: req.Tool, Profile: req.Profile,
		Key: key, Created: now, queuedAt: now, Target: target, Engine: engine, Opts: opts,
	}
	s.addScanLocked(sc)
	s.active[key] = sc.ID
	// The 202 answer describes the scan as accepted: a view taken after
	// the pool has the job could already read done.
	view := sc.viewLocked()
	s.mu.Unlock()

	// Record acceptance before the pool sees the job: a worker may
	// start the attempt immediately, and the timeline must read
	// accepted → queued → attempt_started. A failed submission below
	// closes the pair with a rejected event.
	s.recordEvent(obs.Event{Scan: sc.ID, Type: evAccepted, Detail: sc.Target.Name})
	s.recordEvent(obs.Event{Scan: sc.ID, Type: evQueued})

	// journalMu spans the pool submission and the accepted record so
	// the journal sees "accepted" before any record the worker writes.
	s.journalMu.Lock()
	err = s.cfg.Pool.SubmitJob(s.scanJob(sc, 0))
	if err == nil {
		s.journalAcceptedLocked(sc)
	}
	s.journalMu.Unlock()
	if err != nil {
		s.mu.Lock()
		delete(s.scans, sc.ID)
		delete(s.active, key)
		if s.cfg.Journal != nil {
			// A compaction in the window above may have snapshotted it.
			s.cfg.Journal.Retire(sc.ID)
		}
		s.mu.Unlock()
		s.recordEvent(obs.Event{Scan: sc.ID, Type: evRejected, Err: err.Error()})
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			s.rec.Counter("scans_rejected_total").Inc()
			return "", http.StatusTooManyRequests, errorBody("scan queue is full, retry later")
		case errors.Is(err, jobs.ErrClosed):
			return "", http.StatusServiceUnavailable, errorBody("daemon is shutting down")
		default:
			return "", http.StatusInternalServerError, errorBody(err.Error())
		}
	}
	s.rec.Counter("scans_accepted_total").Inc()
	s.log.Info("scan accepted",
		"scan_id", sc.ID, "target", sc.Target.Name, "tool", sc.Tool,
		"profile", sc.Profile, "files", len(sc.Target.Files))
	return sc.ID, http.StatusAccepted, view
}

// acceptNamed answers a submission naming scan id when this server
// holds that scan (see Accept); ok is false when it does not, or when
// the scan is settled unsuccessfully and its content is in flight as
// another scan, which the submission then joins on Accept's usual path.
func (s *Server) acceptNamed(id string) (_ string, status int, body any, ok bool) {
	s.mu.Lock()
	sc, held := s.scans[id]
	switch {
	case !held:
		s.mu.Unlock()
		return "", 0, nil, false
	case sc.State == stateQueued || sc.State == stateRunning:
		view := sc.viewLocked()
		s.mu.Unlock()
		s.rec.Counter("scans_joined_inflight_total").Inc()
		s.recordEvent(obs.Event{Scan: id, Type: evJoinedInflight, Detail: "submission naming the scan joined"})
		return id, http.StatusAccepted, view, true
	case sc.State == stateDone:
		view := sc.viewLocked()
		s.mu.Unlock()
		return id, http.StatusOK, view, true
	}
	if _, inflight := s.active[sc.Key]; inflight {
		s.mu.Unlock()
		return "", 0, nil, false
	}
	status, body = s.reacceptLocked(sc, "submission naming the scan")
	if status != http.StatusAccepted {
		id = ""
	}
	return id, status, body, true
}

// maxScanIDLen bounds a caller-chosen scan id.
const maxScanIDLen = 64

// CheckScanID reports why id cannot name a scan, or nil when it can:
// an empty id (Accept picks a random one), or at most 64 bytes of
// [0-9A-Za-z._-] other than "." and "..". A caller-chosen id becomes a
// registry key, a journal key and a URL path segment.
func CheckScanID(id string) error {
	if len(id) > maxScanIDLen {
		return fmt.Errorf("scan id is %d bytes, past the %d-byte limit", len(id), maxScanIDLen)
	}
	if id == "." || id == ".." {
		return fmt.Errorf("scan id %q is not a URL path segment", id)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !('0' <= c && c <= '9' || 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '.' || c == '_' || c == '-') {
			return fmt.Errorf("scan id %q holds byte %#02x outside [0-9A-Za-z._-]", id, c)
		}
	}
	return nil
}

// robustnessRetryError classifies a scan whose per-file analysis
// crashed (panics recovered into RobustnessFailures) as a failed
// attempt: transient crashes heal on retry, deterministic ones exhaust
// the attempt budget and quarantine the plugin with the partial result
// attached.
type robustnessRetryError struct {
	res   *analyzer.Result
	files []string
}

func (e *robustnessRetryError) Error() string {
	return fmt.Sprintf("analysis crashed on %d file(s): %s", len(e.files), strings.Join(e.files, ", "))
}

// scanJob wraps one scan as a retryable pool job, journaling every
// lifecycle transition.
func (s *Server) scanJob(sc *scan, priorAttempts int) *jobs.Job {
	return &jobs.Job{
		ID:            sc.ID,
		Retry:         s.cfg.Retry,
		PriorAttempts: priorAttempts,
		Run: func(ctx context.Context) error {
			return s.runScanAttempt(ctx, sc)
		},
		OnStart: func(attempt int) {
			now := s.now()
			s.mu.Lock()
			sc.Attempts = attempt
			wait := now.Sub(sc.queuedAt)
			s.mu.Unlock()
			if wait < 0 {
				// A retry's queuedAt is the projected end of its backoff;
				// a worker picking it up early clamps to zero.
				wait = 0
			}
			s.rec.Observe("scan_queue_wait_seconds", wait.Seconds())
			s.recordEvent(obs.Event{
				Scan: sc.ID, Type: evAttemptStarted, Attempt: attempt,
				DurMS: wait.Milliseconds(),
			})
			s.log.Debug("scan attempt started",
				"scan_id", sc.ID, "attempt", attempt, "queue_wait_ms", wait.Milliseconds())
			s.journal(durable.Record{Type: durable.RecStarted, ScanID: sc.ID, Attempt: attempt})
		},
		OnRetry: func(attempt int, err error, backoff time.Duration) {
			now := s.now()
			s.mu.Lock()
			sc.State = stateQueued
			sc.cancel = nil
			sc.Err = err.Error()
			sc.queuedAt = now.Add(backoff)
			s.mu.Unlock()
			s.rec.Counter("scans_retried_total").Inc()
			s.recordEvent(obs.Event{
				Scan: sc.ID, Type: evAttemptFailed, Attempt: attempt,
				Err: err.Error(), DurMS: backoff.Milliseconds(),
			})
			s.recordEvent(obs.Event{Scan: sc.ID, Type: evQueued, Detail: "retry after backoff"})
			s.log.Warn("scan attempt failed, retrying",
				"scan_id", sc.ID, "attempt", attempt, "error", err.Error(),
				"backoff_ms", backoff.Milliseconds())
			s.journal(durable.Record{
				Type: durable.RecAttemptFailed, ScanID: sc.ID, Attempt: attempt,
				Error: err.Error(), BackoffMS: backoff.Milliseconds(),
			})
		},
		OnQuarantine: func(attempts int, err error) {
			s.settleQuarantined(sc, attempts, err)
		},
	}
}

// runScanAttempt executes one attempt of a queued scan on a pool
// worker. The scan runs under a child context so POST
// /v1/scans/{id}/cancel can abort just this scan; the engines observe
// it at governor checkpoints, return a partial result, and the worker
// moves on to the next job. A nil return settles the scan (done or
// cancelled); an error hands the attempt to the retry lifecycle.
func (s *Server) runScanAttempt(ctx context.Context, sc *scan) error {
	scanCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	s.mu.Lock()
	if sc.cancelReq {
		// Cancelled while still queued (or parked between attempts):
		// settle without running.
		s.settleCancelledLocked(sc, context.Canceled, nil)
		return nil
	}
	sc.State = stateRunning
	sc.cancel = cancel
	s.mu.Unlock()
	s.rec.Gauge("scans_in_flight").Add(1)
	defer s.rec.Gauge("scans_in_flight").Add(-1)
	attemptStart := s.now()
	defer func() {
		s.rec.Observe("scan_attempt_seconds", s.now().Sub(attemptStart).Seconds())
	}()

	var incRep *incremental.Report
	var dispatchWorker string
	res, hit, err := s.cfg.Cache.Do(sc.Key, func() (*analyzer.Result, error) {
		// The scan span exists only when the engine actually runs:
		// cache hits and joined flights record no span.
		span := s.rec.StartNamedSpan("scan:", sc.Target.Name, nil)
		defer span.EndAndObserve("scan_seconds")
		s.mu.Lock()
		sc.span = span
		attempt := sc.Attempts
		s.mu.Unlock()
		if err := scanCtx.Err(); err != nil {
			return nil, err
		}
		// Coordinator role: route the attempt to a fleet worker instead
		// of running the engine here. The worker owns the sharded
		// scancache and incremental store for this digest; a dispatch
		// failure is a failed attempt, classified and retried exactly
		// like a local one.
		if s.cfg.Dispatch != nil {
			s.mu.Lock()
			resub := sc.resubmitted
			sc.resubmitted = false
			s.mu.Unlock()
			dr, derr := s.cfg.Dispatch(scanCtx, &DispatchRequest{
				ScanID: sc.ID, Key: sc.routeKey(), Attempt: attempt, Resubmitted: resub,
				Name: sc.Target.Name, Tool: sc.Tool, Profile: sc.Profile,
				Target: sc.Target, Opts: sc.Opts,
			})
			if derr != nil {
				return nil, derr
			}
			incRep = dr.Inc
			dispatchWorker = dr.Worker
			return dr.Result, nil
		}
		// Incremental reuse kicks in below the whole-result cache:
		// an exact resubmission hits the scan cache, while a new
		// version of a previously scanned plugin reuses the
		// unchanged files' artifacts here.
		var r *analyzer.Result
		var aerr error
		if engine, ok := sc.Engine.(*taint.Engine); ok && s.cfg.IncStore != nil {
			inc := incremental.New(engine, s.cfg.IncStore,
				fmt.Sprintf("%s|%s|%s", s.cfg.Fingerprint, sc.Tool, sc.Profile), s.rec)
			r, incRep, aerr = inc.Analyze(scanCtx, sc.Target, sc.Opts)
		} else {
			r, aerr = sc.Engine.AnalyzeContext(scanCtx, sc.Target, sc.Opts)
		}
		// Text from non-UTF-8 source reaches the cache, the journal and
		// every report as the worker's wire result would carry it, so a
		// standalone daemon and a fleet write the same bytes.
		r = r.ToValidUTF8()
		if aerr == nil && r != nil && len(r.RobustnessFailures) > 0 {
			// Crash-grade file failures fail the attempt (and are
			// never cached): a retry may heal a transient crash.
			files := make([]string, 0, len(r.RobustnessFailures))
			for _, rf := range r.RobustnessFailures {
				files = append(files, rf.File)
			}
			return r, &robustnessRetryError{res: r, files: files}
		}
		return r, aerr
	})

	s.mu.Lock()
	sc.cancel = nil
	if err != nil {
		if errors.Is(err, context.Canceled) {
			if sc.cancelReq {
				// The client cancelled: terminal, keep the engine's
				// labelled partial result.
				s.settleCancelledLocked(sc, err, res)
				return nil
			}
			if ctx.Err() == nil {
				// The cancel sentinel did not come from this attempt's
				// context — it leaked out of some inner exchange (a
				// dispatch branch a fleet layer cancelled, a dependency
				// aborting internally) while the coordinator is alive and
				// nobody decided anything about this scan. Treating it as
				// an interruption would strand the scan queued forever (no
				// restart is coming to replay it); hand the retry
				// lifecycle a plain failed attempt instead.
				if res != nil {
					sc.Result = res
				}
				s.mu.Unlock()
				return fmt.Errorf("attempt aborted by cancelled inner exchange: %v", err)
			}
			// The pool's base context is cancelled: shutdown. This is
			// drain-deadline pressure, not a decision about the scan.
			// Leave it unsettled — no terminal journal record — so replay
			// resubmits it after restart, exactly as if the process had
			// been killed mid-attempt.
			sc.State = stateQueued
			if res != nil {
				sc.Result = res
			}
			s.mu.Unlock()
			s.rec.Counter("scans_interrupted_total").Inc()
			s.recordEvent(obs.Event{
				Scan: sc.ID, Type: evInterrupted, Attempt: sc.Attempts,
				Detail: "shutdown interrupted the attempt; journal replay re-owns the scan",
			})
			s.log.Info("scan attempt interrupted by shutdown", "scan_id", sc.ID)
			return jobs.ErrInterrupted
		}
		// Deadline (job timeout), crashed files, injected faults,
		// engine errors: the attempt failed. Remember the latest
		// partial result so an eventual quarantine keeps it, and let
		// the retry lifecycle classify the error.
		if res != nil {
			sc.Result = res
		}
		s.mu.Unlock()
		return err
	}
	sc.State = stateDone
	sc.Finished = s.now()
	sc.Result = res
	sc.Cached = hit
	if !hit {
		sc.Inc = incRep
		sc.Worker = dispatchWorker
	}
	delete(s.active, sc.Key)
	payload := s.resultPayloadLocked(sc)
	created, finished := sc.Created, sc.Finished
	worker := sc.Worker
	s.mu.Unlock()
	s.rec.Counter("scans_completed_total").Inc()
	if hit {
		s.recordEvent(obs.Event{Scan: sc.ID, Type: evCacheHit, Detail: "coalesced with in-flight identical scan"})
	}
	if !hit && incRep != nil && incRep.ReusedFiles > 0 {
		s.recordEvent(obs.Event{
			Scan: sc.ID, Type: evIncReuse,
			Detail: fmt.Sprintf("%d/%d files reused", incRep.ReusedFiles, incRep.TotalFiles),
		})
	}
	s.degradationEvents(sc.ID, res)
	s.settleEvent(sc, stateDone, "", created, finished)
	s.journal(durable.Record{
		Type: durable.RecCompleted, ScanID: sc.ID, Attempt: sc.Attempts,
		Worker: worker, Payload: payload,
	})
	s.maybeCompact()
	return nil
}

// degradationEvents records governor degradations of a finished
// attempt — truncated budgets and per-file failures — so a trace shows
// not just that a scan was slow or partial but which ladder rung it
// hit.
func (s *Server) degradationEvents(id string, res *analyzer.Result) {
	if res == nil {
		return
	}
	if res.Truncated {
		s.recordEvent(obs.Event{
			Scan: id, Type: evDegraded,
			Detail: "truncated_by:" + strings.Join(res.TruncatedBy, ","),
		})
	}
	if n := len(res.FilesFailed); n > 0 {
		s.recordEvent(obs.Event{
			Scan: id, Type: evDegraded,
			Detail: fmt.Sprintf("%d file(s) failed analysis", n),
		})
	}
}

// settleCancelledLocked settles a cancelled scan; caller holds s.mu,
// which is released before journaling.
func (s *Server) settleCancelledLocked(sc *scan, cause error, partial *analyzer.Result) {
	sc.State = stateCancelled
	sc.Err = cause.Error()
	if partial != nil {
		sc.Result = partial
	}
	sc.Finished = s.now()
	delete(s.active, sc.Key)
	payload := s.resultPayloadLocked(sc)
	created, finished := sc.Created, sc.Finished
	s.mu.Unlock()
	s.rec.Counter("scans_cancelled_total").Inc()
	s.settleEvent(sc, stateCancelled, cause.Error(), created, finished)
	// A cancelled scan is settled work: journal it as completed (the
	// payload records the cancelled state) so replay does not re-run
	// what a client deliberately stopped.
	s.journal(durable.Record{
		Type: durable.RecCompleted, ScanID: sc.ID, Attempt: sc.Attempts,
		Error: sc.Err, Payload: payload,
	})
	s.maybeCompact()
}

// settleQuarantined dead-letters a scan whose attempts are exhausted
// (or whose failure was terminal), keeping its latest partial result.
func (s *Server) settleQuarantined(sc *scan, attempts int, err error) {
	s.mu.Lock()
	sc.State = stateQuarantined
	sc.Attempts = attempts
	sc.Err = err.Error()
	sc.Finished = s.now()
	sc.cancel = nil
	delete(s.active, sc.Key)
	payload := s.resultPayloadLocked(sc)
	created, finished := sc.Created, sc.Finished
	s.mu.Unlock()
	s.rec.Counter("scans_quarantined_total").Inc()
	s.settleEvent(sc, stateQuarantined, err.Error(), created, finished)
	s.journal(durable.Record{
		Type: durable.RecQuarantined, ScanID: sc.ID, Attempt: attempts,
		Error: err.Error(), Payload: payload,
	})
	s.maybeCompact()
}

// handleCancel requests cancellation of a queued or running scan.
// Cancellation is cooperative: a running scan stops at its next
// governor checkpoint and settles as "cancelled" with whatever partial
// result the engine had produced. Finished scans conflict.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sc, ok := s.scans[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		s.error(w, http.StatusNotFound, "unknown scan id")
		return
	}
	switch sc.State {
	case stateDone, stateCancelled, stateQuarantined:
		state := sc.State
		s.mu.Unlock()
		s.error(w, http.StatusConflict, fmt.Sprintf("scan is already %s", state))
		return
	}
	sc.cancelReq = true
	if sc.cancel != nil {
		sc.cancel()
	}
	view := sc.viewLocked()
	s.mu.Unlock()
	s.rec.Counter("scans_cancel_requests_total").Inc()
	s.recordEvent(obs.Event{Scan: sc.ID, Type: evCancelRequest})
	s.log.Info("scan cancellation requested", "scan_id", sc.ID)
	s.writeJSON(w, http.StatusAccepted, view)
}

// diffJSON is the wire shape of a cross-version comparison.
type diffJSON struct {
	Plugin     string           `json:"plugin"`
	From       string           `json:"from"`
	To         string           `json:"to"`
	Fixed      int              `json:"fixed"`
	Persisting int              `json:"persisting"`
	Introduced int              `json:"introduced"`
	Changes    []diffChangeJSON `json:"changes"`
}

type diffChangeJSON struct {
	Status  string           `json:"status"`
	Finding analyzer.Finding `json:"finding"`
}

// handleDiff compares two finished scans: GET /v1/diffs?from=ID&to=ID
// classifies every vulnerability as fixed, persisting or introduced
// between the two snapshots (§V.D).
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	fromID, toID := r.URL.Query().Get("from"), r.URL.Query().Get("to")
	if fromID == "" || toID == "" {
		s.error(w, http.StatusBadRequest, "both from and to scan ids are required")
		return
	}
	resolve := func(id string) (*analyzer.Result, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		sc, ok := s.scans[id]
		if !ok || sc.State != stateDone {
			return nil, false
		}
		return sc.Result, true
	}
	oldRes, ok := resolve(fromID)
	if !ok {
		s.error(w, http.StatusNotFound, fmt.Sprintf("scan %q not found or not finished", fromID))
		return
	}
	newRes, ok := resolve(toID)
	if !ok {
		s.error(w, http.StatusNotFound, fmt.Sprintf("scan %q not found or not finished", toID))
		return
	}

	rep := evolution.Compare(oldRes, newRes, fromID, toID)
	out := diffJSON{
		Plugin:     rep.Plugin,
		From:       fromID,
		To:         toID,
		Fixed:      rep.Count(evolution.Fixed),
		Persisting: rep.Count(evolution.Persisting),
		Introduced: rep.Count(evolution.Introduced),
		Changes:    make([]diffChangeJSON, 0, len(rep.Changes)),
	}
	for _, c := range rep.Changes {
		out.Changes = append(out.Changes, diffChangeJSON{
			Status: c.Status.String(), Finding: c.Finding,
		})
	}
	s.rec.Counter("diffs_served_total").Inc()
	s.writeJSON(w, http.StatusOK, out)
}

// routeKey is the key a fleet dispatcher routes sc by (see
// DispatchRequest.Key): its lineage when the client named the plugin,
// its content digest otherwise.
func (sc *scan) routeKey() string {
	if sc.Target.Name == unnamedTarget {
		return sc.Key
	}
	return "lineage|" + sc.Tool + "|" + sc.Profile + "|" + sc.Target.Name
}

// handleGet reports a scan's status or renders its finished report.
// With ?wait=DURATION an unsettled scan's answer is held until it
// settles, so a client learns the outcome one round trip after it.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	wait, err := parseWait(r.URL.Query().Get("wait"))
	if err != nil {
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	view, ok := s.awaitView(r.Context(), r.PathValue("id"), wait)
	if !ok {
		s.error(w, http.StatusNotFound, "unknown scan id")
		return
	}

	format := r.URL.Query().Get("format")
	if format == "" || format == "json" {
		s.writeJSON(w, http.StatusOK, view)
		return
	}
	if view.Status != stateDone {
		s.error(w, http.StatusConflict,
			fmt.Sprintf("scan is %s; %s is only available for finished scans", view.Status, format))
		return
	}
	// Render into memory and record the event before writing the body:
	// a client that has read the report must find it in the trace, and
	// render_seconds must not include the client's socket.
	renderStart := s.now()
	var data []byte
	var contentType string
	switch format {
	case "sarif":
		var err error
		if data, err = report.SARIF(view.Result); err != nil {
			s.error(w, http.StatusInternalServerError, err.Error())
			return
		}
		contentType = "application/sarif+json"
	case "html":
		data = []byte(report.HTML(view.Result))
		contentType = "text/html; charset=utf-8"
	default:
		s.error(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (want json, sarif or html)", format))
		return
	}
	elapsed := s.now().Sub(renderStart)
	s.rec.Observe("render_seconds", elapsed.Seconds())
	s.recordEvent(obs.Event{
		Scan: view.ID, Type: evRendered, Detail: format, DurMS: elapsed.Milliseconds(),
	})
	w.Header().Set("Content-Type", contentType)
	w.Write(data)
}

// parseWait reads a ?wait= value: a non-negative duration, capped at
// MaxScanWait ("" means no wait).
func parseWait(v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("invalid wait %q (want a duration such as 30s)", v)
	}
	return min(d, MaxScanWait), nil
}

// awaitView returns scan id's current view. A queued or running scan
// is first awaited for up to wait: the view is read again when the scan
// settles, when the wait ends, when ctx ends (the client went away) and
// when the server starts draining — a scan a shutdown interrupts never
// settles, so waiting on it would hold the shutdown for the whole wait.
// The view and the wake channel are taken in one critical section, and
// settleEvent closes the channel only after the settled state is
// visible, so no settle is missed.
func (s *Server) awaitView(ctx context.Context, id string, wait time.Duration) (scanJSON, bool) {
	var timeout <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		timeout = t.C
	}
	for {
		s.mu.Lock()
		sc, ok := s.scans[id]
		var view scanJSON
		if ok {
			view = sc.viewLocked()
		}
		wake := s.settleWake
		final := !ok || timeout == nil || settledState(sc.State) || s.draining
		s.mu.Unlock()
		if final {
			return view, ok
		}
		select {
		case <-wake:
			continue
		case <-timeout:
		case <-ctx.Done():
		}
		timeout = nil // answer with the view as it is now
	}
}

// wakeWaitersLocked wakes every GET ?wait= long-poll; caller holds s.mu.
func (s *Server) wakeWaitersLocked() {
	close(s.settleWake)
	s.settleWake = make(chan struct{})
}

// engineFingerprint returns the engine's self-reported configuration
// fingerprint (rule digest + options), or "" for engines that do not
// expose one. Folding it into the cache key keeps results computed
// under different rule-pack sets from ever being served for each other.
func engineFingerprint(a analyzer.Analyzer) string {
	if f, ok := a.(interface{ OptionsFingerprint() string }); ok {
		return f.OptionsFingerprint()
	}
	return ""
}

// rulepackJSON is the wire shape of one pack in the listing.
type rulepackJSON struct {
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Extends     []string `json:"extends,omitempty"`
	Rules       int      `json:"rules"`
}

// handleRulepacks lists the builtin rule packs a submission may name in
// its profile / rule_packs fields.
func (s *Server) handleRulepacks(w http.ResponseWriter, _ *http.Request) {
	packs := rulepack.Builtins()
	out := make([]rulepackJSON, 0, len(packs))
	for _, p := range packs {
		out = append(out, rulepackJSON{
			Name:        p.Name,
			Description: p.Description,
			Extends:     p.Extends,
			Rules:       p.RuleCount(),
		})
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"rulepacks": out})
}

// handleHealthz reports liveness and occupancy. The status flips to
// "degraded" when the journal has failed over to in-memory mode: the
// daemon still scans correctly but accepted work would not survive a
// crash.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	tracked := len(s.scans)
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	body := map[string]any{
		"version":     version.Version,
		"queue_depth": s.cfg.Pool.QueueDepth(),
		"workers":     s.cfg.Pool.Workers(),
		"scans":       tracked,
		"draining":    draining,
		"cache_items": s.cfg.Cache.Len(),
		"cache_bytes": s.cfg.Cache.Bytes(),
		"cache_stats": s.cfg.Cache.Stats(),
	}
	if s.cfg.Journal != nil {
		degraded, jerr := s.cfg.Journal.Degraded()
		u := s.cfg.Journal.Usage()
		j := map[string]any{
			"enabled":       true,
			"degraded":      degraded,
			"wal_bytes":     u.WALBytes,
			"live_bytes":    u.LiveBytes,
			"garbage_bytes": u.GarbageBytes,
		}
		if degraded {
			status = "degraded"
			if jerr != nil {
				j["error"] = jerr.Error()
			}
		}
		body["journal"] = j
	} else {
		body["journal"] = map[string]any{"enabled": false}
	}
	body["status"] = status
	s.writeJSON(w, http.StatusOK, body)
}

// handleMetrics exposes the obs registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Occupancy gauges are sampled at scrape time; everything else is
	// pushed by the pool, cache and engines as it happens.
	s.rec.Gauge("jobs_queue_depth").Set(float64(s.cfg.Pool.QueueDepth()))
	s.rec.Gauge("jobs_inflight_workers").Set(float64(s.cfg.Pool.InFlight()))
	s.rec.Gauge("jobs_retry_backlog").Set(float64(s.cfg.Pool.RetryBacklog()))
	s.rec.Gauge("obs_events_resident").Set(float64(s.rec.Events().Len()))
	s.rec.Gauge("obs_events_dropped").Set(float64(s.rec.Events().Dropped()))
	s.rec.Gauge("scancache_entries").Set(float64(s.cfg.Cache.Len()))
	s.rec.Gauge("scancache_bytes").Set(float64(s.cfg.Cache.Bytes()))
	snap := s.rec.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		snap.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap.WritePrometheus(w)
}

// writeJSON sends v with the given status.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// error sends a JSON error body.
func (s *Server) error(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, errorBody(msg))
}

// errorBody is the JSON error envelope shared by handlers and Accept.
func errorBody(msg string) map[string]string {
	return map[string]string{"error": msg}
}

// newID returns a 16-hex-char random scan id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a counter
		// fallback would race, so surface the impossible loudly.
		panic(err)
	}
	return hex.EncodeToString(b[:])
}
