// Package pipeline implements the intra-scan parallel front end shared
// by the analysis engines: the lex → parse stage of every file fans
// across a bounded worker pool (phpSAFE's analysis is embarrassingly
// parallel until model-link time — the paper scans each plugin file
// independently before composing the OOP model, §III.B).
//
// Determinism: a file's AST is a pure function of its content, workers
// write results into a per-index slot, and callers consume the files in
// sorted path order, so output is byte-identical to a sequential run
// regardless of the worker count. Governance holds per worker — each
// worker runs under its own govern.Fork child, so checkpoints, per-file
// time slices and cancellation behave exactly as in a serial scan, and
// the children's accounting is joined back at the barrier.
package pipeline

import (
	"repro/internal/analyzer"
	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/phpast"
	"repro/internal/phplex"
	"repro/internal/phpparse"
)

// ParseFiles parses every source file across a pool of workers and
// returns the ASTs by path. Files present in preparsed (content-
// addressed reuse from incremental scans) are taken as-is, their
// recorded parse steps charged to the governor, unless that charge
// would exhaust the step budget: then they are parsed like the rest. Each worker folds identifiers through its own interner shard.
// workers follows ScanOptions.EffectiveFileWorkers: values below one
// are clamped to a serial run, which executes under gov itself with no
// goroutines — the exact legacy semantics.
func ParseFiles(files []analyzer.SourceFile, preparsed map[string]*phpast.File, rec *obs.Recorder, parent *obs.Span, gov *govern.Governor, workers int) map[string]*phpast.File {
	n := len(files)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	shards := make([]*phplex.Interner, workers)
	for w := range shards {
		shards[w] = phplex.NewInterner()
	}
	out := make([]*phpast.File, n)
	govern.ForkJoin(gov, workers, n, func(child *govern.Governor, worker, idx int) {
		sf := files[idx]
		if f := preparsed[sf.Path]; f != nil && child.Charge(f.Steps) {
			out[idx] = f
			return
		}
		// Under a halted governor the governed parser degenerates to an
		// empty (but well-formed) AST, so a cancelled scan drains the
		// front end in O(files).
		before := child.Steps()
		out[idx] = phpparse.Parse(sf.Path, sf.Content, phpparse.Options{
			Recorder: rec, Parent: parent, Gov: child, Interner: shards[worker],
		})
		out[idx].Steps = child.Steps() - before
	})
	m := make(map[string]*phpast.File, n)
	for i, sf := range files {
		m[sf.Path] = out[i]
	}
	return m
}
