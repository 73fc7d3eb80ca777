// Package chaos is the deterministic fault-injection harness for the
// phpsafed fleet. A Schedule is a seeded plan of faults — dropped,
// delayed, and duplicated dispatches, heartbeat blackholes, worker
// kills, coordinator restarts, journal write errors — derived entirely
// from one int64, so any failure a chaos run finds reproduces from the
// printed seed.
//
// The package injects at two seams and owns only the first:
//
//   - Network faults run through Injector, an http.RoundTripper plugged
//     into fleet.Config.HTTPClient. It classifies each request by path
//     (dispatch vs heartbeat), matches it against the schedule's active
//     fault windows for that worker, and drops, delays, or duplicates
//     it. No fleet or server code knows it is being tested.
//
//   - Process faults (WorkerKill, CoordinatorRestart) and disk faults
//     (JournalError, via govern.IOFaultHookForTesting) cannot be
//     expressed as a RoundTripper; the schedule carries them
//     (Schedule.ProcessFaults) and the test driver executes them on its
//     own timeline.
//
// Determinism is about the plan, not the interleaving: goroutine
// scheduling still varies run to run, but the faults — their kinds,
// targets, onsets, and durations — are a pure function of the seed, so
// a failing seed replays the same adversary.
package chaos

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// FaultKind names one class of injected failure.
type FaultKind string

const (
	// DispatchDrop fails POST /internal/v1/scan to the target worker at
	// the transport layer — the coordinator sees a connection error, a
	// retryable miss.
	DispatchDrop FaultKind = "dispatch_drop"
	// DispatchDelay holds dispatches to the target worker for Dur before
	// letting them through — the slow-worker fault hedging exists for.
	DispatchDelay FaultKind = "dispatch_delay"
	// DispatchDup sends each dispatch to the target worker twice; the
	// duplicate's response is discarded. The worker accepts a dispatch
	// under its coordinator scan id, so the duplicate joins the first
	// and this must be invisible.
	DispatchDup FaultKind = "dispatch_dup"
	// HeartbeatBlackhole fails GET /internal/v1/heartbeat to the target
	// worker while the window is open: the worker looks dead to the
	// monitor while still serving dispatches.
	HeartbeatBlackhole FaultKind = "heartbeat_blackhole"
	// WorkerKill hard-stops the target worker (in-flight scans
	// interrupted, listener gone) and reboots it on the same scan
	// journal after Dur. Driver-executed.
	WorkerKill FaultKind = "worker_kill"
	// CoordinatorRestart hard-stops the coordinator and reboots it on
	// the same scan journal: replay, adoption, and membership recovery
	// all on the line. Driver-executed.
	CoordinatorRestart FaultKind = "coordinator_restart"
	// JournalError makes the target worker's scan-journal writes fail
	// while the window is open (via govern.IOFaultHookForTesting),
	// degrading that journal to in-memory mode. Driver-installed.
	JournalError FaultKind = "journal_error"
)

// Fault is one scheduled injection. At is the onset relative to
// Injector.Start (the harness epoch); Dur is the window length for
// windowed kinds and the downtime for WorkerKill. Target is the worker
// index, or -1 for the coordinator.
type Fault struct {
	Kind   FaultKind
	Target int
	At     time.Duration
	Dur    time.Duration
}

func (f Fault) String() string {
	who := fmt.Sprintf("worker[%d]", f.Target)
	if f.Target < 0 {
		who = "coordinator"
	}
	return fmt.Sprintf("%s %s at=%s dur=%s", f.Kind, who, f.At, f.Dur)
}

// Schedule is a deterministic fault plan: the seed it was derived from
// and its faults in onset order.
type Schedule struct {
	Seed   int64
	Faults []Fault
}

// Schedule shape constants: fault count range, onset window, and
// duration range. Onsets start late enough for the corpus to be
// accepted and in flight, and end early enough that the post-fault
// settle wait dominates the run, not the fault tail.
const (
	minFaults  = 3
	maxFaults  = 7
	minOnset   = 100 * time.Millisecond
	onsetSpan  = 1100 * time.Millisecond
	minWindow  = 60 * time.Millisecond
	windowSpan = 240 * time.Millisecond
	// maxCoordRestarts bounds the most expensive fault per schedule so
	// run time stays predictable; extra draws degrade to DispatchDrop.
	maxCoordRestarts = 2
)

// NewSchedule derives the fault plan for a fleet of `workers` workers
// from seed. Two invariants hold for every seed: worker 0 is never
// process-killed (at least one worker always survives, so the
// settles-exactly-once property is satisfiable), and at most
// maxCoordRestarts coordinator restarts are drawn (run time stays
// bounded). Journal faults target only workers — a coordinator journal
// fault would legitimately lose accepted scans, which is durability's
// documented contract, not a chaos bug.
func NewSchedule(seed int64, workers int) Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{Seed: seed}
	kinds := []FaultKind{
		DispatchDrop, DispatchDelay, DispatchDup,
		HeartbeatBlackhole, WorkerKill, CoordinatorRestart, JournalError,
	}
	n := minFaults + rng.Intn(maxFaults-minFaults+1)
	restarts := 0
	for i := 0; i < n; i++ {
		f := Fault{
			Kind: kinds[rng.Intn(len(kinds))],
			At:   minOnset + time.Duration(rng.Int63n(int64(onsetSpan))),
			Dur:  minWindow + time.Duration(rng.Int63n(int64(windowSpan))),
		}
		switch f.Kind {
		case WorkerKill:
			if workers < 2 {
				f.Kind = DispatchDrop // nobody is expendable
				f.Target = 0
				break
			}
			f.Target = 1 + rng.Intn(workers-1)
		case CoordinatorRestart:
			if restarts++; restarts > maxCoordRestarts {
				f.Kind = DispatchDrop
				f.Target = rng.Intn(workers)
				break
			}
			f.Target = -1
		default:
			f.Target = rng.Intn(workers)
		}
		s.Faults = append(s.Faults, f)
	}
	sort.SliceStable(s.Faults, func(i, j int) bool { return s.Faults[i].At < s.Faults[j].At })
	return s
}

// ProcessFaults returns the driver-executed faults (worker kills,
// coordinator restarts) in onset order.
func (s Schedule) ProcessFaults() []Fault {
	var out []Fault
	for _, f := range s.Faults {
		if f.Kind == WorkerKill || f.Kind == CoordinatorRestart {
			out = append(out, f)
		}
	}
	return out
}

// JournalFaults returns the disk faults in onset order.
func (s Schedule) JournalFaults() []Fault {
	var out []Fault
	for _, f := range s.Faults {
		if f.Kind == JournalError {
			out = append(out, f)
		}
	}
	return out
}

// Injector is the network seam: an http.RoundTripper that applies the
// schedule's dispatch and heartbeat faults to matching requests and
// passes everything else through untouched.
type Injector struct {
	sched Schedule
	base  http.RoundTripper

	mu      sync.Mutex
	start   time.Time
	targets map[string]int // URL host → worker index
	fired   map[FaultKind]int
}

// NewInjector builds an injector over base (nil: the default
// transport). Bind worker hosts with BindTarget, then Start the clock.
func NewInjector(s Schedule, base http.RoundTripper) *Injector {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Injector{
		sched:   s,
		base:    base,
		targets: make(map[string]int),
		fired:   make(map[FaultKind]int),
	}
}

// BindTarget maps a worker's URL host ("127.0.0.1:41234") to its
// schedule index. Rebinding after a worker restart is allowed.
func (in *Injector) BindTarget(idx int, host string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.targets[host] = idx
}

// Start stamps the harness epoch; fault windows are offsets from it.
func (in *Injector) Start() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.start = time.Now()
}

// Fired reports how many times faults of the given kind were applied
// to a request — the harness's visibility into whether a schedule's
// windows actually intersected traffic.
func (in *Injector) Fired(kind FaultKind) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[kind]
}

// RoundTrip applies any active fault window matching the request, then
// delegates to the base transport. Only the fleet-internal dispatch
// and heartbeat paths are ever touched; result polling, adoption
// queries, and client traffic pass through clean.
func (in *Injector) RoundTrip(req *http.Request) (*http.Response, error) {
	var (
		drop, dup bool
		delay     time.Duration
		dropKind  FaultKind
	)
	in.mu.Lock()
	if !in.start.IsZero() {
		idx, known := in.targets[req.URL.Host]
		if known {
			elapsed := time.Since(in.start)
			dispatch := req.Method == http.MethodPost && strings.HasPrefix(req.URL.Path, "/internal/v1/scan")
			heartbeat := strings.HasPrefix(req.URL.Path, "/internal/v1/heartbeat")
			for _, f := range in.sched.Faults {
				if f.Target != idx || elapsed < f.At || elapsed > f.At+f.Dur {
					continue
				}
				switch {
				case f.Kind == DispatchDrop && dispatch:
					drop, dropKind = true, DispatchDrop
				case f.Kind == DispatchDelay && dispatch && f.Dur > delay:
					delay = f.Dur
				case f.Kind == DispatchDup && dispatch:
					dup = true
				case f.Kind == HeartbeatBlackhole && heartbeat:
					drop, dropKind = true, HeartbeatBlackhole
				}
			}
			if drop {
				in.fired[dropKind]++
			}
			if delay > 0 {
				in.fired[DispatchDelay]++
			}
			if dup {
				in.fired[DispatchDup]++
			}
		}
	}
	in.mu.Unlock()

	if drop {
		return nil, fmt.Errorf("chaos: %s injected for %s %s", dropKind, req.Method, req.URL)
	}
	if delay > 0 {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(delay):
		}
	}
	if dup {
		if clone := cloneForDup(req); clone != nil {
			// Fire-and-forget duplicate: its response (or error) is
			// discarded. The fleet must tolerate the double delivery.
			go func() {
				if resp, err := in.base.RoundTrip(clone); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
		}
	}
	return in.base.RoundTrip(req)
}

// cloneForDup copies a request with a replayable body, buffering the
// original's body so both copies can be sent. Returns nil when the
// body cannot be duplicated.
func cloneForDup(req *http.Request) *http.Request {
	clone := req.Clone(req.Context())
	if req.Body == nil {
		return clone
	}
	buf, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil
	}
	req.Body = io.NopCloser(bytes.NewReader(buf))
	req.GetBody = func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(buf)), nil
	}
	clone.Body = io.NopCloser(bytes.NewReader(buf))
	clone.GetBody = req.GetBody
	clone.ContentLength = int64(len(buf))
	return clone
}
