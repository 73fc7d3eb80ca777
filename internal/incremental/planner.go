package incremental

import (
	"sort"

	"repro/internal/analyzer"
	"repro/internal/phpast"
	"repro/internal/phplex"
	"repro/internal/phpparse"
	"repro/internal/taint"
)

// plan is one scan's partition into files whose artifacts are replayed
// and files that must be re-analyzed: the reuse report it fills, plus
// what the write-back needs — the re-analyzed paths (sorted) and every
// path's artifact key (component-closure addressed) and content hash.
type plan struct {
	Report
	analyze      []string
	keys, hashes map[string]string
}

// buildPlan reads the target's content addresses and collects its
// AST-cache hits. It
// returns the plan and the engine seed that fills it in: the engine
// parses the cache misses in its own parse stage and hands every AST to
// the seed's Plan callback, which caches the fresh ASTs when that parse
// ran clean and then partitions the components.
func buildPlan(store *Store, eng *taint.Engine, fingerprint string, target *analyzer.Target, opts *analyzer.ScanOptions) (*plan, *taint.Seed) {
	p := &plan{
		Report: Report{TotalFiles: len(target.Files)},
		keys:   make(map[string]string, len(target.Files)),
		hashes: make(map[string]string, len(target.Files)),
	}
	depth := opts.EffectiveMaxParseDepth()
	hits := make(map[string]*phpast.File, len(target.Files))
	for _, sf := range target.Files {
		p.hashes[sf.Path] = sf.Digest()
		if f, ok := store.AST(sf.Path, p.hashes[sf.Path], depth); ok {
			hits[sf.Path] = f
		}
	}
	// fp pins everything an artifact's validity depends on besides file
	// content: the caller's tool/config fingerprint, the engine's
	// options, the scan's budgets and the lexer and parser versions.
	fp := fingerprint + "|" + eng.OptionsFingerprint() + "|" + opts.BudgetKey() +
		"|" + phplex.Version + "|" + phpparse.Version
	partition := func(files map[string]*phpast.File, clean bool) map[string]*taint.FileResult {
		if clean {
			for _, sf := range target.Files {
				if hits[sf.Path] == nil {
					store.PutAST(sf.Path, p.hashes[sf.Path], depth, files[sf.Path])
				}
			}
		}
		return p.partition(store, fp, BuildGraph(files, eng.IsSuperglobal), clean)
	}
	return p, &taint.Seed{Parsed: hits, Plan: partition}
}

// partition splits the dependency components and returns the replayed
// files' results: a component whose every member has a stored artifact
// under the current component hash is reused whole; any other component
// is re-analyzed whole. Reusing a file therefore requires that nothing
// it could interact with has changed — a changed file transitively
// invalidates its dependents because their component hash changes. A
// scan whose parse did not run clean reuses nothing, so it analyzes
// exactly what a cold scan would.
func (p *plan) partition(store *Store, fp string, g *Graph, clean bool) map[string]*taint.FileResult {
	// A rescan that replays nothing partitions again from scratch.
	p.Report = Report{TotalFiles: p.TotalFiles}
	p.analyze = nil
	skip := make(map[string]*taint.FileResult)
	comps := g.Components()
	p.Components = len(comps)

	for _, members := range comps {
		// The component hash covers the fingerprint and every member's
		// path and content, so any change anywhere in the component
		// yields fresh keys for all of its files.
		fields := make([]string, 0, 2*len(members)+1)
		fields = append(fields, fp)
		for _, m := range members {
			fields = append(fields, m, p.hashes[m])
		}
		compHash := hashFields(fields...)

		arts := make([]*Artifact, len(members))
		complete := clean
		for i, m := range members {
			key := hashFields("artifact", compHash, m)
			p.keys[m] = key
			if a, ok := store.Artifact(key); ok && a.Result != nil {
				arts[i] = a
			} else {
				complete = false
			}
		}
		if complete {
			p.ReusedComponents++
			for i, m := range members {
				skip[m] = arts[i].Result
				p.TimeSavedSeconds += arts[i].AnalysisSeconds
			}
			continue
		}
		for _, m := range members {
			p.analyze = append(p.analyze, m)
			if last, ok := store.LastKey(m); ok && last != p.keys[m] {
				p.InvalidatedFiles++
			}
		}
	}
	sort.Strings(p.analyze)
	p.ReusedFiles, p.AnalyzedFiles = len(skip), len(p.analyze)
	if p.TotalFiles > 0 {
		p.ReuseRatio = float64(p.ReusedFiles) / float64(p.TotalFiles)
	}
	return skip
}
