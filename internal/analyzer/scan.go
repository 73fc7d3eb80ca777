package analyzer

import (
	"fmt"
	"runtime"
	"time"
)

// Default scan budgets. The values are deliberately generous: at these
// limits no plugin in the paper's corpus (nor the evaluation fixtures)
// comes close to truncation, so governed and ungoverned scans produce
// byte-identical reports. The budgets exist to bound hostile or
// pathological inputs — megabyte token streams, pathological nesting,
// runaway inter-procedural fixpoints — not to trim ordinary work.
const (
	// DefaultMaxParseDepth bounds expression/statement nesting in the
	// parser. Real plugin code stays under a few dozen levels.
	DefaultMaxParseDepth = 512
	// DefaultMaxSteps bounds taint-interpreter statement executions (and
	// the baselines' trace visits) per scan.
	DefaultMaxSteps = 20_000_000
	// DefaultMaxFindings bounds reported findings per scan; a report
	// this large is an analysis pathology, not a security report.
	DefaultMaxFindings = 10_000
)

// ScanOptions carries the resource budgets of one scan. The zero value
// of an individual field means "no limit" for durations and "use the
// package default" for the integer budgets; a nil *ScanOptions means
// all defaults. Options are read-only during the scan and may be shared
// across concurrent scans.
type ScanOptions struct {
	// Deadline bounds the whole scan's wall-clock time. Zero disables
	// the deadline. The deadline is enforced cooperatively at the same
	// checkpoints as context cancellation; exceeding it truncates the
	// scan (partial result, no error) rather than failing it.
	Deadline time.Duration `json:"deadline,omitempty"`
	// MaxParseDepth bounds parser recursion depth per file. Deeper
	// nesting degrades into a recorded parse error, mirroring how
	// malformed source already degrades. Zero means default.
	MaxParseDepth int `json:"max_parse_depth,omitempty"`
	// MaxSteps bounds interpreter statement steps across the scan.
	// Zero means default; negative means unlimited.
	MaxSteps int64 `json:"max_steps,omitempty"`
	// MaxFindings bounds the findings list. Zero means default;
	// negative means unlimited.
	MaxFindings int `json:"max_findings,omitempty"`
	// FileTimeSlice bounds wall-clock time spent on a single file.
	// Exceeding it fails that file (recorded in FilesFailed) and the
	// scan continues with the next file. Zero disables the slice.
	FileTimeSlice time.Duration `json:"file_time_slice,omitempty"`
	// FileWorkers sizes the intra-scan worker pool that fans per-file
	// lex/parse/analysis across goroutines. Zero or negative means
	// GOMAXPROCS (use every core); 1 runs the scan strictly serially.
	// Output is byte-identical regardless of the worker count: per-file
	// results are merged in sorted path order.
	FileWorkers int `json:"file_workers,omitempty"`
}

// DefaultScanOptions returns the default budgets spelled out; it is
// what a nil *ScanOptions resolves to.
func DefaultScanOptions() *ScanOptions {
	return &ScanOptions{
		MaxParseDepth: DefaultMaxParseDepth,
		MaxSteps:      DefaultMaxSteps,
		MaxFindings:   DefaultMaxFindings,
	}
}

// BudgetKey renders the budgets that can change a scan's output, for
// cache keys: a result or incremental artifact made under one budget
// set is never served to a scan under another. FileWorkers is
// deliberately excluded: the worker count never changes output.
func (o *ScanOptions) BudgetKey() string {
	var deadline, slice time.Duration
	if o != nil {
		deadline, slice = o.Deadline, o.FileTimeSlice
	}
	return fmt.Sprintf("d%d:p%d:s%d:f%d:t%d", deadline, o.EffectiveMaxParseDepth(),
		o.EffectiveMaxSteps(), o.EffectiveMaxFindings(), slice)
}

// EffectiveMaxParseDepth resolves the zero-means-default convention.
func (o *ScanOptions) EffectiveMaxParseDepth() int {
	if o == nil || o.MaxParseDepth == 0 {
		return DefaultMaxParseDepth
	}
	if o.MaxParseDepth < 0 {
		return int(^uint(0) >> 1)
	}
	return o.MaxParseDepth
}

// EffectiveMaxSteps resolves the zero-means-default convention.
func (o *ScanOptions) EffectiveMaxSteps() int64 {
	if o == nil || o.MaxSteps == 0 {
		return DefaultMaxSteps
	}
	if o.MaxSteps < 0 {
		return int64(^uint64(0) >> 1)
	}
	return o.MaxSteps
}

// EffectiveFileWorkers resolves the worker-pool size: zero or negative
// means GOMAXPROCS, anything else is taken literally.
func (o *ScanOptions) EffectiveFileWorkers() int {
	if o == nil || o.FileWorkers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.FileWorkers
}

// EffectiveMaxFindings resolves the zero-means-default convention.
func (o *ScanOptions) EffectiveMaxFindings() int {
	if o == nil || o.MaxFindings == 0 {
		return DefaultMaxFindings
	}
	if o.MaxFindings < 0 {
		return int(^uint(0) >> 1)
	}
	return o.MaxFindings
}

// RobustnessFailure records a file whose analysis crashed (panicked)
// and was isolated: the panic was recovered, the file counted as
// failed, and the rest of the scan proceeded. It is the crash-grade
// analogue of an entry in Result.FilesFailed (paper §V.E robustness).
type RobustnessFailure struct {
	// File is the path of the file whose analysis crashed.
	File string `json:"file"`
	// Reason is the recovered panic value, formatted.
	Reason string `json:"reason"`
}
