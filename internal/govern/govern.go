// Package govern is the resource-governance layer of the analysis
// pipeline. A Governor carries one scan's context and budgets
// (deadline, interpreter steps, findings, per-file time slice, parser
// depth) and exposes checkpoints cheap enough to sit inside the lexer
// loop, the parser recursion and the taint interpreter: the hot path
// is one integer increment plus a masked branch, with the actual
// clock/context inspection amortized over checkIntervalSteps steps.
//
// The degradation ladder, from mildest to hardest stop:
//
//  1. parse depth exceeded — one expression degrades to a recorded
//     parse error; the file and the scan continue.
//  2. file time slice exceeded — one file fails (FilesFailed); the
//     scan continues with the next file.
//  3. panic in per-file analysis — recovered by Protect, recorded as
//     a RobustnessFailure; the scan continues with the next file.
//  4. steps / findings / deadline budget exhausted — the scan stops
//     early with a partial Result flagged Truncated; no error.
//  5. context cancelled or expired — the scan stops early with a
//     partial Result and an error wrapping ctx.Err(); the daemon maps
//     this to the distinct "cancelled" scan state.
package govern

import (
	"context"
	"fmt"
	"time"

	"repro/internal/analyzer"
	"repro/internal/obs"
)

// Budget dimension names, as recorded in Result.TruncatedBy and in the
// govern_truncations_total_* counters.
const (
	// DimDeadline is the whole-scan wall-clock budget.
	DimDeadline = "deadline"
	// DimSteps is the interpreter step budget.
	DimSteps = "steps"
	// DimFindings is the findings-count budget.
	DimFindings = "findings"
	// DimFileSlice is the per-file wall-clock budget.
	DimFileSlice = "file_slice"
	// DimParseDepth is the parser recursion budget.
	DimParseDepth = "parse_depth"
)

// checkIntervalSteps is how many Step calls pass between two slow
// checks (context poll + clock read). Power of two so the gate is a
// mask, not a division. At ~10ns/statement this bounds the reaction
// time to cancellation at a few microseconds of analysis work.
const checkIntervalSteps = 256

// Governor enforces one scan's budgets. It is used by a single
// goroutine (engines analyze one target sequentially); it is not safe
// for concurrent use. A nil *Governor is the ungoverned state: every
// method is a no-op, so pre-governance call paths need no branches.
type Governor struct {
	ctx context.Context
	rec *obs.Recorder

	deadline      time.Time // zero when no scan deadline
	maxSteps      int64
	maxFindings   int
	maxParseDepth int
	fileSlice     time.Duration
	fileDeadline  time.Time // zero when no slice or outside a file

	steps      int64
	halted     bool
	fileScoped bool // current halt stops the file, not the scan
	cancelErr  error
	dims       []string // exhausted dimensions, first exhaustion first

	faultHook func(file string) // test-only crash injection, see SetFaultHook
}

// FaultHookForTesting, when non-nil, is installed on every Governor
// New creates, as if SetFaultHook had been called. It is the seam the
// fault-injection suite uses to crash real engine scans on chosen
// files; production code never sets it.
var FaultHookForTesting func(file string)

// IOFaultHookForTesting is the disk sibling of FaultHookForTesting:
// when non-nil, durability-layer disk operations (journal appends,
// fsyncs, snapshot renames) consult it first and treat a non-nil
// return as that operation failing. The crash-safety suite uses it to
// fail the scan journal mid-flight and assert the daemon degrades to
// in-memory mode instead of blocking the scan path; production code
// never sets it.
var IOFaultHookForTesting func(op, path string) error

// New builds a Governor for one scan. A nil opts means default
// budgets; a nil rec disables counters. The context's own deadline (if
// any) is enforced through the cancellation path, not the truncation
// path — it belongs to the caller, not to the scan's budget.
func New(ctx context.Context, opts *analyzer.ScanOptions, rec *obs.Recorder) *Governor {
	if ctx == nil {
		ctx = context.Background()
	}
	g := &Governor{
		ctx:           ctx,
		rec:           rec,
		maxSteps:      opts.EffectiveMaxSteps(),
		maxFindings:   opts.EffectiveMaxFindings(),
		maxParseDepth: opts.EffectiveMaxParseDepth(),
		faultHook:     FaultHookForTesting,
	}
	if opts != nil {
		if opts.Deadline > 0 {
			g.deadline = time.Now().Add(opts.Deadline)
		}
		g.fileSlice = opts.FileTimeSlice
	}
	return g
}

// Step is the hot-path checkpoint: one increment and a masked branch.
// Every checkIntervalSteps calls it polls the context, the scan
// deadline, the step budget and the file slice.
func (g *Governor) Step() {
	if g == nil || g.halted {
		return
	}
	g.steps++
	if g.steps&(checkIntervalSteps-1) == 0 {
		g.slowCheck()
	}
}

// CheckNow forces a slow check immediately. Coarse loops (per file,
// per event) use it instead of Step so a scan reacts to cancellation
// even when no fine-grained steps are being taken.
func (g *Governor) CheckNow() {
	if g == nil || g.halted {
		return
	}
	g.slowCheck()
}

// slowCheck inspects every budget that needs a clock or context read.
func (g *Governor) slowCheck() {
	if err := g.ctx.Err(); err != nil {
		g.cancelErr = err
		g.halt("", false)
		g.counter("govern_cancellations_total")
		return
	}
	now := time.Time{}
	if !g.deadline.IsZero() || !g.fileDeadline.IsZero() {
		now = time.Now()
	}
	if !g.deadline.IsZero() && now.After(g.deadline) {
		g.halt(DimDeadline, false)
		return
	}
	if g.steps >= g.maxSteps {
		g.halt(DimSteps, false)
		return
	}
	if !g.fileDeadline.IsZero() && now.After(g.fileDeadline) {
		g.halt(DimFileSlice, true)
	}
}

// halt stops the scan (or, fileScoped, the current file), recording
// the exhausted dimension. An empty dim is cancellation: the error is
// reported through Finish instead of TruncatedBy.
func (g *Governor) halt(dim string, fileScoped bool) {
	g.halted = true
	g.fileScoped = fileScoped
	if dim != "" && !fileScoped {
		g.noteDim(dim)
	}
}

// noteDim records an exhausted dimension once and counts it.
func (g *Governor) noteDim(dim string) {
	for _, d := range g.dims {
		if d == dim {
			return
		}
	}
	g.dims = append(g.dims, dim)
	g.counter("govern_truncations_total_" + dim)
}

func (g *Governor) counter(name string) {
	if g.rec != nil {
		g.rec.Counter(name).Inc()
	}
}

// Halted reports whether work must stop — true for both scan-scoped
// and file-scoped halts, so interpreter checkpoints need one test.
func (g *Governor) Halted() bool { return g != nil && g.halted }

// ScanHalted reports whether the whole scan must stop (a file-scoped
// halt only stops the current file).
func (g *Governor) ScanHalted() bool { return g != nil && g.halted && !g.fileScoped }

// Clean polls the context and reports whether no budget has touched the
// scan so far: it is not halted and no dimension is exhausted.
func (g *Governor) Clean() bool {
	g.CheckNow()
	return g == nil || (!g.halted && len(g.dims) == 0)
}

// Charge bills n steps of earlier work (a cached parse) as if Step ran
// n times. If one of those Steps would halt the scan, it charges
// nothing and reports false: the caller redoes the work under Step.
func (g *Governor) Charge(n int64) bool {
	if g == nil {
		return true
	}
	b := (g.steps + n) &^ (checkIntervalSteps - 1) // last checkpoint reached
	if g.halted || (b > g.steps && b >= g.maxSteps) {
		return false
	}
	g.steps += n
	return true
}

// BeginFile opens a per-file accounting window: the file time slice
// restarts. It also runs the test-only fault hook, which may panic —
// callers invoke BeginFile inside Protect.
func (g *Governor) BeginFile(file string) {
	if g == nil {
		return
	}
	if g.fileSlice > 0 {
		g.fileDeadline = time.Now().Add(g.fileSlice)
	}
	if g.faultHook != nil {
		g.faultHook(file)
	}
}

// EndFile closes a file's accounting window. When the file was halted
// by its time slice, the halt is cleared (the scan continues), the
// file_slice dimension is recorded, and true is returned so the caller
// can fail the file.
func (g *Governor) EndFile() (sliceExceeded bool) {
	if g == nil {
		return false
	}
	g.fileDeadline = time.Time{}
	if g.halted && g.fileScoped {
		g.halted = false
		g.fileScoped = false
		g.noteDim(DimFileSlice)
		return true
	}
	return false
}

// CheckFindings halts the scan when count findings have been reported.
// Engines call it after appending to Result.Findings.
func (g *Governor) CheckFindings(count int) {
	if g == nil || g.halted {
		return
	}
	if count >= g.maxFindings {
		g.halt(DimFindings, false)
	}
}

// MaxParseDepth returns the parser recursion budget.
func (g *Governor) MaxParseDepth() int {
	if g == nil {
		return analyzer.DefaultMaxParseDepth
	}
	return g.maxParseDepth
}

// NoteParseDepth records that a file hit the parser depth budget. The
// parser degrades the construct itself; this only marks the result
// truncated.
func (g *Governor) NoteParseDepth() {
	if g == nil {
		return
	}
	g.noteDim(DimParseDepth)
}

// Steps returns how many steps the scan has consumed.
func (g *Governor) Steps() int64 {
	if g == nil {
		return 0
	}
	return g.steps
}

// Finish applies the governor's verdict to a finished (possibly
// partial) result: exhausted dimensions mark it Truncated, and a
// cancelled context comes back as the scan's error. Engines call it
// once, last.
func (g *Governor) Finish(res *analyzer.Result) error {
	if g == nil {
		return nil
	}
	if res != nil {
		for _, dim := range g.dims {
			res.MarkTruncated(dim)
		}
	}
	if g.cancelErr != nil {
		return fmt.Errorf("scan cancelled: %w", g.cancelErr)
	}
	return nil
}

// SetFaultHook installs a test-only hook run by BeginFile inside the
// protected region; a hook that panics simulates an engine crash on
// that file. Production code never calls this.
func (g *Governor) SetFaultHook(fn func(file string)) {
	if g != nil {
		g.faultHook = fn
	}
}

// Protect runs fn and converts a panic into a labelled
// RobustnessFailure on res: the file is failed, the scan survives.
// It reports whether fn completed without panicking.
func Protect(g *Governor, file string, res *analyzer.Result, fn func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
			if res != nil {
				res.RobustnessFailures = append(res.RobustnessFailures, analyzer.RobustnessFailure{
					File:   file,
					Reason: fmt.Sprintf("panic: %v", r),
				})
				res.FilesFailed = append(res.FilesFailed, file)
				res.Errors = append(res.Errors, fmt.Sprintf(
					"%s: error: analysis crashed (recovered): %v", file, r))
			}
			if g != nil {
				g.counter("govern_panics_recovered_total")
			}
		}
	}()
	fn()
	return true
}
