package incremental

import (
	"sort"

	"repro/internal/analyzer"
	"repro/internal/phpast"
	"repro/internal/phplex"
	"repro/internal/phpparse"
	"repro/internal/taint"
)

// Plan is the partition of one snapshot into files whose artifacts are
// replayed and files that must be re-analyzed, plus everything the
// executor needs to seed the engine and write fresh artifacts back.
type Plan struct {
	// Reuse and Analyze partition the target's paths (both sorted).
	Reuse   []string
	Analyze []string

	// Components / ReusedComponents count dependency components.
	Components       int
	ReusedComponents int

	// Keys maps every path to its artifact key (component-closure
	// addressed); Hashes maps every path to its content hash.
	Keys   map[string]string
	Hashes map[string]string

	// Seed is the engine input: replayed results for reused files and
	// pre-parsed ASTs for every file.
	Seed *taint.Seed

	// TimeSavedSeconds sums the recorded analysis cost of the reused
	// files (an estimate: each artifact carries its file's share of the
	// scan that produced it).
	TimeSavedSeconds float64

	// Invalidated counts re-analyzed files that had an artifact from an
	// earlier scan under a different component hash — dependency-aware
	// invalidation at work, as opposed to files never seen before.
	Invalidated int
}

// planFingerprint pins everything an artifact's validity depends on
// besides file content: the caller's tool/config fingerprint plus the
// lexer and parser model versions.
func planFingerprint(fingerprint string) string {
	return fingerprint + "|" + phplex.Version + "|" + phpparse.Version
}

// BuildPlan hashes and parses the target (through the store's AST
// cache), builds the dependency graph, and partitions the components:
// a component whose every member has a stored artifact under the
// current component hash is reused whole; any other component is
// re-analyzed whole. Reusing a file therefore requires that nothing it
// could interact with has changed — a changed file transitively
// invalidates its dependents because their component hash changes.
func BuildPlan(store *Store, eng *taint.Engine, fingerprint string, target *analyzer.Target) *Plan {
	p := &Plan{
		Keys:   make(map[string]string, len(target.Files)),
		Hashes: make(map[string]string, len(target.Files)),
		Seed: &taint.Seed{
			Skip:   make(map[string]*taint.FileResult),
			Parsed: make(map[string]*phpast.File, len(target.Files)),
		},
	}
	fp := planFingerprint(fingerprint + "|" + eng.OptionsFingerprint())

	files := make(map[string]*phpast.File, len(target.Files))
	for _, sf := range target.Files {
		p.Hashes[sf.Path] = HashFile(sf.Content)
		f, ok := store.AST(sf.Path, sf.Content)
		if !ok {
			f = phpparse.Parse(sf.Path, sf.Content, phpparse.Options{})
			store.PutAST(sf.Path, sf.Content, f)
		}
		files[sf.Path] = f
		p.Seed.Parsed[sf.Path] = f
	}

	g := BuildGraph(files, eng.IsSuperglobal)
	comps := g.Components()
	p.Components = len(comps)

	for _, members := range comps {
		// The component hash covers the fingerprint and every member's
		// path and content, so any change anywhere in the component
		// yields fresh keys for all of its files.
		fields := make([]string, 0, 2*len(members)+1)
		fields = append(fields, fp)
		for _, m := range members {
			fields = append(fields, m, p.Hashes[m])
		}
		compHash := hashFields(fields...)

		arts := make([]*Artifact, len(members))
		complete := true
		for i, m := range members {
			key := hashFields("artifact", compHash, m)
			p.Keys[m] = key
			if a, ok := store.Artifact(key); ok && a.Result != nil {
				arts[i] = a
			} else {
				complete = false
			}
		}
		if complete {
			p.ReusedComponents++
			for i, m := range members {
				p.Reuse = append(p.Reuse, m)
				p.Seed.Skip[m] = arts[i].Result
				p.TimeSavedSeconds += arts[i].AnalysisSeconds
			}
			continue
		}
		for _, m := range members {
			p.Analyze = append(p.Analyze, m)
			if last, ok := store.LastKey(m); ok && last != p.Keys[m] {
				p.Invalidated++
			}
		}
	}
	sort.Strings(p.Reuse)
	sort.Strings(p.Analyze)
	return p
}
