package incremental

import (
	"context"
	"fmt"
	"time"

	"repro/internal/analyzer"
	"repro/internal/obs"
	"repro/internal/taint"
)

// Report summarizes one incremental scan's reuse.
type Report struct {
	TotalFiles       int     `json:"total_files"`
	ReusedFiles      int     `json:"reused_files"`
	AnalyzedFiles    int     `json:"analyzed_files"`
	Components       int     `json:"components"`
	ReusedComponents int     `json:"reused_components"`
	InvalidatedFiles int     `json:"invalidated_files"`
	ReuseRatio       float64 `json:"reuse_ratio"`
	TimeSavedSeconds float64 `json:"time_saved_seconds"`
}

// Analyzer wraps a taint engine with artifact reuse: each scan hands
// the engine its AST-cache hits, plans a reuse/re-analyze partition on
// the ASTs the engine's parse stage produced, replays the reused files'
// recorded outcomes, and writes fresh artifacts back.
// Warm results are byte-identical to a cold Engine.AnalyzeContext of the
// same target (the differential test in this package holds that line).
//
// The wrapper is safe for concurrent use if its store is; the recorder
// (which may be nil) receives the inc_files_{reused,analyzed}_total,
// inc_components_reused_total and inc_files_invalidated_total counters
// and the inc_reuse_ratio / inc_time_saved_seconds histograms.
type Analyzer struct {
	eng         *taint.Engine
	store       *Store
	fingerprint string
	rec         *obs.Recorder
}

// New returns an incremental analyzer over eng and store. fingerprint
// must identify the tool build and configuration profile (the engine's
// own options are folded in automatically); artifacts never flow
// between different fingerprints.
func New(eng *taint.Engine, store *Store, fingerprint string, rec *obs.Recorder) *Analyzer {
	return &Analyzer{eng: eng, store: store, fingerprint: fingerprint, rec: rec}
}

// Name returns the wrapped engine's report name: incremental execution
// is a scheduling strategy, not a different tool.
func (a *Analyzer) Name() string { return a.eng.Name() }

// Analyze scans target with artifact reuse under a context and
// resource budgets and also returns the reuse report. A cancelled scan
// returns the partial result with the error and writes nothing back; a
// truncated or crash-isolated scan exports no artifacts (the engine
// withholds them), so the store never receives partial per-file state.
func (a *Analyzer) Analyze(ctx context.Context, target *analyzer.Target, opts *analyzer.ScanOptions) (*analyzer.Result, *Report, error) {
	if target == nil {
		return nil, nil, fmt.Errorf("incremental: nil target")
	}
	p, seed := buildPlan(a.store, a.eng, a.fingerprint, target, opts)

	start := time.Now()
	res, arts, err := a.eng.AnalyzeIncremental(ctx, target, opts, seed)
	if err != nil {
		return res, nil, err
	}
	elapsed := time.Since(start).Seconds()

	// Write back one artifact per analyzed file. The per-file cost is
	// the scan's analysis time split evenly across the analyzed files —
	// an estimate that makes the reuse reports' "time saved" additive.
	perFile := 0.0
	if len(p.analyze) > 0 {
		perFile = elapsed / float64(len(p.analyze))
	}
	for _, path := range p.analyze {
		fr := arts[path]
		if fr == nil {
			continue
		}
		a.store.Put(p.keys[path], &Artifact{
			Path:            path,
			FileHash:        p.hashes[path],
			ComponentHash:   p.keys[path],
			AnalysisSeconds: perFile,
			Result:          fr,
		})
	}

	rep := &p.Report
	a.rec.Counter("inc_files_reused_total").Add(int64(rep.ReusedFiles))
	a.rec.Counter("inc_files_analyzed_total").Add(int64(rep.AnalyzedFiles))
	a.rec.Counter("inc_components_reused_total").Add(int64(rep.ReusedComponents))
	a.rec.Counter("inc_files_invalidated_total").Add(int64(rep.InvalidatedFiles))
	a.rec.Observe("inc_reuse_ratio", rep.ReuseRatio)
	a.rec.Observe("inc_time_saved_seconds", rep.TimeSavedSeconds)
	return res, rep, nil
}
