// Command phpsafed runs the phpSAFE analysis pipeline as a long-lived
// HTTP service: a scan daemon with a bounded job queue, a worker pool
// and a content-addressed result cache. It is the serving counterpart
// of the one-shot phpsafe CLI — upload a plugin, poll the job, fetch
// the report in analyzer JSON, SARIF or HTML.
//
// Usage:
//
//	phpsafed [flags]
//
//	-addr ADDR          listen address (default :8477)
//	-role ROLE          process role: standalone (default; the full
//	                    single-process daemon, byte-identical to a
//	                    phpsafed without the flag), coordinator (owns
//	                    the client API and the journal, dispatches
//	                    scans to workers over a consistent-hash ring)
//	                    or worker (runs the analyzer stack behind
//	                    /internal/v1/scan for one coordinator)
//	-pool-workers N     scan worker goroutines (default NumCPU;
//	                    coordinator default: sized by fleet width)
//	-fleet-workers URLS coordinator: comma-separated worker base URLs,
//	                    e.g. http://10.0.0.2:8477,http://10.0.0.3:8477.
//	                    Optional when workers auto-register with -join;
//	                    journaled members are merged in on restart
//	-join URL           worker: coordinator base URL to announce to
//	                    (retries with backoff, then re-announces
//	                    periodically); requires -advertise
//	-advertise URL      worker: base URL this worker serves on, reported
//	                    in heartbeats and announced via -join
//	-hedge-delay D      coordinator: duplicate a dispatch to the next
//	                    ring owner when the primary has not settled
//	                    after D; first result wins (0 = off)
//	-heartbeat-interval D
//	                    coordinator: worker heartbeat probe cadence
//	                    (default 1s); dead workers are re-probed on the
//	                    jittered -retry-base/-retry-cap backoff curve
//	-queue N            queued-scan bound; beyond it submissions get
//	                    HTTP 429 (default 64)
//	-job-timeout D      per-scan context timeout (default 2m)
//	-cache-mb N         result-cache byte budget in MiB (default 256)
//	-max-upload-mb N    submission body limit in MiB (default 32)
//	-inc-cache DIR      persist the incremental artifact store to DIR so
//	                    per-file reuse survives restarts (the store is
//	                    always on, in memory, without the flag): when a
//	                    changed version of a previously scanned plugin
//	                    arrives, only the files whose dependency
//	                    component changed are re-analyzed
//	-scan-deadline D    cap on one scan's wall-clock budget; exceeding it
//	                    truncates the scan (0 = uncapped, the job
//	                    timeout still applies)
//	-max-parse-depth N  cap on parser nesting depth per file (0 = the
//	                    analyzer default)
//	-max-steps N        cap on interpreter steps per scan (0 = the
//	                    analyzer default)
//	-max-findings N     cap on findings per scan (0 = the analyzer
//	                    default)
//	-file-slice D       cap on wall-clock time per file; exceeding it
//	                    fails that file and the scan continues (0 = off)
//	-journal DIR        journal accepted scans to DIR so they survive a
//	                    crash: on restart the daemon replays the journal,
//	                    rehydrates finished results and resubmits
//	                    interrupted scans (off without the flag). Every
//	                    role keeps the same scan journal; a worker's
//	                    scans carry the coordinator's scan ids, so a
//	                    restarted worker resumes the coordinator's scans
//	                    and a restarted coordinator finds them there
//	-max-attempts N     attempts per scan before it is quarantined
//	                    (default 3)
//	-retry-base D       backoff before a scan's second attempt; doubled
//	                    per further attempt with jitter (default 100ms)
//	-retry-cap D        upper bound on the backoff (default 5s)
//	-journal-sync N     fsync the journal every N appends (1 = every
//	                    append, the default; 0 keeps 1; -1 = never)
//	-log-format F       structured log encoding on stdout: text
//	                    (default) or json (one object per line)
//	-log-level L        minimum log severity: debug, info (default),
//	                    warn or error
//	-slow-scan D        log a scan's full flight-recorder timeline at
//	                    warn level when its end-to-end time reaches D
//	                    (default 30s; 0 = off)
//	-version            print the version and exit
//
// Every log line is structured (log/slog) and carries a component
// attribute; scan lifecycle lines carry scan_id, so the daemon's
// output is machine-parseable end to end. The flight recorder behind
// GET /v1/scans/{id}/trace and GET /debug/events records each scan's
// lifecycle timeline (queue wait, attempts, backoff, reuse,
// degradations, replay, settle).
//
// The four budget caps bound what POST /v1/scans requests may ask for:
// a request's deadline_ms, max_parse_depth, max_steps, max_findings
// and file_slice_ms fields can tighten a budget below the cap but
// never exceed it.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: /readyz flips to
// draining, the listener stops, accepted scans drain, the journal is
// compacted and closed, and only then does the process exit. A crash
// (SIGKILL, power loss) instead leaves the journal behind; the next
// start with the same -journal recovers every accepted scan.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/analyzer"
	"repro/internal/durable"
	"repro/internal/fleet"
	"repro/internal/incremental"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/scancache"
	"repro/internal/server"
	"repro/internal/version"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8477", "listen address")
	role := flag.String("role", "standalone", "process role: standalone, coordinator or worker")
	poolWorkersFlag := flag.Int("pool-workers", 0, "scan worker goroutines (0 = NumCPU; coordinator: sized by fleet width)")
	fleetWorkersFlag := flag.String("fleet-workers", "", "coordinator: comma-separated worker base URLs (optional with auto-registration)")
	joinURL := flag.String("join", "", "worker: coordinator base URL to announce to (requires -advertise)")
	advertise := flag.String("advertise", "", "worker: base URL this worker serves on, reported in heartbeats and announced via -join")
	hedgeDelay := flag.Duration("hedge-delay", 0, "coordinator: duplicate a dispatch to the next ring owner after this delay (0 = off)")
	heartbeatInterval := flag.Duration("heartbeat-interval", time.Second, "coordinator: worker heartbeat probe cadence")
	queue := flag.Int("queue", 64, "max queued scans before submissions get 429")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "per-scan context timeout")
	cacheMB := flag.Int64("cache-mb", 256, "result cache budget in MiB")
	maxUploadMB := flag.Int64("max-upload-mb", 32, "submission body limit in MiB")
	incCache := flag.String("inc-cache", "", "persist the incremental artifact store to this directory")
	scanDeadline := flag.Duration("scan-deadline", 0, "cap on one scan's wall-clock budget (0 = uncapped)")
	maxParseDepth := flag.Int("max-parse-depth", 0, "cap on parser nesting depth per file (0 = default)")
	maxSteps := flag.Int64("max-steps", 0, "cap on interpreter steps per scan (0 = default)")
	maxFindings := flag.Int("max-findings", 0, "cap on findings per scan (0 = default)")
	fileSlice := flag.Duration("file-slice", 0, "cap on wall-clock time per file (0 = off)")
	fileWorkers := flag.Int("file-workers", 0, "default per-scan worker pool for file lex/parse/analysis (0 = all cores, 1 = serial)")
	journalDir := flag.String("journal", "", "journal accepted scans to this directory (off when empty)")
	maxAttempts := flag.Int("max-attempts", jobs.DefaultMaxAttempts, "attempts per scan before quarantine")
	retryBase := flag.Duration("retry-base", jobs.DefaultRetryBase, "backoff before a scan's second attempt")
	retryCap := flag.Duration("retry-cap", jobs.DefaultRetryCap, "upper bound on the retry backoff")
	journalSync := flag.Int("journal-sync", 1, "fsync the journal every N appends (-1 = never)")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	logLevel := flag.String("log-level", "info", "minimum log severity: debug, info, warn or error")
	slowScan := flag.Duration("slow-scan", 30*time.Second, "log a scan's full timeline when it takes at least this long (0 = off)")
	showVersion := flag.Bool("version", false, "print the version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String())
		return 0
	}

	logger, err := obs.NewLogger(os.Stdout, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	dlog := logger.With("component", "phpsafed")

	// Resolve the role before building anything: it decides which
	// layers this process runs.
	var fleetWorkers []string
	poolWorkers := *poolWorkersFlag
	switch *role {
	case "standalone", "worker":
	case "coordinator":
		for _, u := range strings.Split(*fleetWorkersFlag, ",") {
			if u = strings.TrimSpace(u); u == "" {
				continue
			}
			w, err := fleet.CanonicalURL(u)
			if err != nil {
				fmt.Fprintf(os.Stderr, "phpsafed: -fleet-workers: %v\n", err)
				return 2
			}
			fleetWorkers = append(fleetWorkers, w)
		}
		if len(fleetWorkers) == 0 && *journalDir == "" {
			dlog.Warn("coordinator starting with no workers; the fleet is empty until workers announce via -join")
		}
		if poolWorkers == 0 {
			// Coordinator pool slots hold network waits, not CPU: size by
			// fleet width so a small coordinator host can still keep every
			// worker's queue fed. With auto-registration the width is not
			// known up front; default wide.
			poolWorkers = 4 * len(fleetWorkers)
			if poolWorkers < 16 {
				poolWorkers = 16
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "phpsafed: unknown -role %q (want standalone, coordinator or worker)\n", *role)
		return 2
	}
	if *joinURL != "" && *role != "worker" {
		fmt.Fprintln(os.Stderr, "phpsafed: -join is only meaningful with -role=worker")
		return 2
	}
	if *joinURL != "" && *advertise == "" {
		fmt.Fprintln(os.Stderr, "phpsafed: -join requires -advertise (the URL the coordinator should dispatch to)")
		return 2
	}
	for _, u := range []struct {
		flag string
		v    *string
	}{{"-join", joinURL}, {"-advertise", advertise}} {
		if *u.v == "" {
			continue
		}
		if *u.v, err = fleet.CanonicalURL(*u.v); err != nil {
			fmt.Fprintf(os.Stderr, "phpsafed: %s: %v\n", u.flag, err)
			return 2
		}
	}

	// A daemon is always instrumented: /metrics is part of the API.
	rec := obs.NewRecorder()
	pool := jobs.New(jobs.Config{
		Workers:    poolWorkers,
		QueueSize:  *queue,
		JobTimeout: *jobTimeout,
		Recorder:   rec,
		Logger:     logger,
	})
	cache := scancache.New(*cacheMB<<20, rec)
	incStore, err := incremental.NewStore(*incCache, rec)
	if err != nil {
		dlog.Error("incremental store failed to open", "error", err.Error())
		return 1
	}
	var journal *durable.Journal
	var replayRecords []durable.Record
	if *journalDir != "" {
		journal, replayRecords, err = durable.Open(*journalDir, durable.Options{
			SyncEvery: *journalSync,
			Recorder:  rec,
			Logger:    logger,
		})
		if err != nil {
			dlog.Error("journal failed to open", "dir", *journalDir, "error", err.Error())
			return 1
		}
		defer journal.Close()
	}
	retry := jobs.RetryPolicy{
		MaxAttempts: *maxAttempts,
		Base:        *retryBase,
		Cap:         *retryCap,
	}
	if *role == "worker" {
		// The coordinator owns the attempt budget; a worker retrying
		// internally would burn budget the coordinator cannot see.
		retry.MaxAttempts = 1
	}
	var fl *fleet.Fleet
	if *role == "coordinator" {
		// Journaled members survive a coordinator restart: merge them
		// with the configured list so the ring is rebuilt before any
		// worker re-announces.
		members := fleetWorkers
		if journal != nil {
			for _, m := range fleet.MembersFromRecords(replayRecords) {
				members = append(members, m)
			}
		}
		fl = fleet.New(fleet.Config{
			Workers:           members,
			HeartbeatInterval: *heartbeatInterval,
			HedgeDelay:        *hedgeDelay,
			ReconnectBackoff:  jobs.RetryPolicy{Base: *retryBase, Cap: *retryCap},
			Journal:           journal,
			Recorder:          rec,
			Logger:            logger.With("component", "fleet"),
		})
	}
	srvCfg := server.Config{
		Pool:           pool,
		Cache:          cache,
		Recorder:       rec,
		MaxUploadBytes: *maxUploadMB << 20,
		IncStore:       incStore,
		Retry:          retry,
		Budgets: analyzer.ScanOptions{
			Deadline:      *scanDeadline,
			MaxParseDepth: *maxParseDepth,
			MaxSteps:      *maxSteps,
			MaxFindings:   *maxFindings,
			FileTimeSlice: *fileSlice,
			FileWorkers:   *fileWorkers,
		},
		Journal:           journal,
		Logger:            logger,
		SlowScanThreshold: *slowScan,
	}
	if fl != nil {
		srvCfg.Dispatch = fl.Dispatch
		srvCfg.FleetStatus = fl.Status
		srvCfg.ExtraLiveRecords = fl.MemberRecords
	}
	api := server.New(srvCfg)
	if journal != nil {
		resubmitted, rehydrated, quarantined := api.Replay(replayRecords)
		if resubmitted+rehydrated+quarantined > 0 {
			dlog.Info("journal replay finished",
				"resubmitted", resubmitted, "rehydrated", rehydrated, "quarantined", quarantined)
		}
	}

	var handler http.Handler = api
	if *role == "worker" {
		wk := fleet.NewWorker(fleet.WorkerConfig{Advertise: *advertise})
		wk.Bind(api, pool)
		handler = wk.Handler()
	}
	if fl != nil {
		handler = fleet.NewCoordinatorHandler(api, fl)
		fl.Start()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *joinURL != "" {
		go fleet.Announce(ctx, nil, *joinURL, *advertise,
			jobs.RetryPolicy{Base: *retryBase, Cap: *retryCap}, logger)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	dlog.Info("listening",
		"version", version.Version, "addr", *addr, "role", *role, "workers", pool.Workers(),
		"queue", *queue, "cache_mb", *cacheMB, "journal", *journalDir != "")

	select {
	case <-ctx.Done():
		dlog.Info("signal received, draining")
	case err := <-errCh:
		dlog.Error("listener failed", "error", err.Error())
		return 1
	}

	// Flip readiness off, stop intake, then let queued scans finish.
	api.StartDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		dlog.Error("http shutdown failed", "error", err.Error())
	}
	if err := pool.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.Canceled) {
		dlog.Error("pool drain failed", "error", err.Error())
		return 1
	}
	if fl != nil {
		// After the pool drained no dispatches remain; stop probing.
		fl.Stop()
	}
	if journal != nil {
		// A clean exit leaves a compact journal: the next start replays
		// one snapshot instead of the whole WAL.
		api.CompactJournal()
	}
	dlog.Info("drained, bye")
	return 0
}
