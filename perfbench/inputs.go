package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/analyzer"
	"repro/internal/corpus"
)

// pinnedTruth is the phpSAFE Table I outcome (EXPERIMENTS.md) on the
// paper-calibrated corpus: true and false positives per snapshot. The
// corpus-cold oracle requires every pass to reproduce it exactly.
var pinnedTruth = map[int64]map[corpus.Version][2]int{
	corpus.DefaultSpec().Seed: {
		corpus.V2012: {376, 65},
		corpus.V2014: {537, 62},
	},
}

// inputs is everything a run feeds the program, derived from the
// benchmark seed. The plugins are always the paper-calibrated corpus
// (corpus.DefaultSpec), so every run does the same work and the Table I
// oracle applies; the seed decides the order plugins are visited in each
// pass, which file the rescan step edits, which report format each op
// fetches, and the comment that makes each pass's content unique.
type inputs struct {
	seed         int64
	v2012, v2014 *corpus.Corpus
	plugins      []plugin
	lines        map[*analyzer.Target]int
}

// plugin is one plugin's two versions plus its seeded rescan edit.
type plugin struct {
	name     string
	old, new *analyzer.Target
	touch    int // index in new.Files of the file the rescan step edits
}

// stepLines is the source line count of a history step's content.
func (in *inputs) stepLines(idx, step int) int {
	if step == stepOld {
		return in.lines[in.plugins[idx].old]
	}
	return in.lines[in.plugins[idx].new]
}

// newInputs generates the corpus and the seeded choices that do not vary
// per pass.
func newInputs(seed int64) (*inputs, error) {
	spec := corpus.DefaultSpec()
	v2012, v2014, err := corpus.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	if _, ok := pinnedTruth[spec.Seed]; !ok {
		return nil, fmt.Errorf("no pinned Table I outcome for corpus seed %d", spec.Seed)
	}
	in := &inputs{seed: seed, v2012: v2012, v2014: v2014, lines: map[*analyzer.Target]int{}}
	rng := rand.New(rand.NewSource(seed))
	for _, c := range []*corpus.Corpus{v2012, v2014} {
		for _, t := range c.Targets {
			in.lines[t] = t.Lines()
		}
	}
	for _, nt := range v2014.Targets {
		ot := v2012.Target(nt.Name)
		if ot == nil {
			return nil, fmt.Errorf("plugin %s has no 2012 version", nt.Name)
		}
		p := plugin{name: nt.Name, old: sortedFiles(ot), new: sortedFiles(nt), touch: rng.Intn(len(nt.Files))}
		in.lines[p.old], in.lines[p.new] = in.lines[ot], in.lines[nt]
		in.plugins = append(in.plugins, p)
	}
	return in, nil
}

// sortedFiles returns t with its files in path order, the order the
// daemon's submission decoder produces, so in-process and daemon scans
// see identical targets.
func sortedFiles(t *analyzer.Target) *analyzer.Target {
	files := append([]analyzer.SourceFile(nil), t.Files...)
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
	return &analyzer.Target{Name: t.Name, Files: files}
}

// passRand returns the generator for one pass's seeded choices.
func (in *inputs) passRand(pass int) *rand.Rand {
	return rand.New(rand.NewSource(in.seed*1_000_003 + int64(pass)))
}

// coldOrder is the order corpus-cold scans both snapshots' plugins in one
// pass.
func (in *inputs) coldOrder(pass int) []*analyzer.Target {
	all := append(append([]*analyzer.Target(nil), in.v2012.Targets...), in.v2014.Targets...)
	in.passRand(pass).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all
}

// formats are the report formats a service op may fetch.
var formats = [...]string{"json", "sarif", "html"}

// historyPlan is one pass of the service stream: the order plugins'
// histories are started in, and each history step's report format.
type historyPlan struct {
	order  []int
	format [][historySteps]string // by plugin index
}

// historyPlan draws one pass's service stream.
func (in *inputs) historyPlan(pass int) historyPlan {
	rng := in.passRand(pass)
	p := historyPlan{order: rng.Perm(len(in.plugins)), format: make([][historySteps]string, len(in.plugins))}
	for i := range p.format {
		for s := range p.format[i] {
			p.format[i][s] = formats[rng.Intn(len(formats))]
		}
	}
	return p
}

// Steps of one plugin's version history in the service workloads.
const (
	stepOld    = iota // the 2012 version, cold
	stepNew           // the 2014 version
	stepRescan        // the 2014 version with one file edited
	stepHit           // the same content again: a cache hit
	historySteps
)

// stepTarget returns the content a history step submits. Every file
// carries a comment naming the pass, so each pass's content is new to
// every cache, and the rescan step edits that comment in one file. The
// comment goes on the opening tag's line, so no finding's line moves.
func (in *inputs) stepTarget(pass, idx, step int) *analyzer.Target {
	p := in.plugins[idx]
	tag := fmt.Sprintf("perfbench seed %d pass %d plugin %s", in.seed, pass, p.name)
	src := p.new
	if step == stepOld {
		src = p.old
	}
	out := &analyzer.Target{Name: p.name, Files: make([]analyzer.SourceFile, len(src.Files))}
	for i, f := range src.Files {
		t := tag
		if step >= stepRescan && i == p.touch {
			t += " edited"
		}
		out.Files[i] = analyzer.SourceFile{Path: f.Path, Content: stamp(f.Content, t)}
	}
	return out
}

// stamp puts a comment on the first line of a PHP file.
func stamp(src, comment string) string {
	c := " /* " + comment + " */"
	if rest, ok := strings.CutPrefix(src, "<?php"); ok {
		return "<?php" + c + rest
	}
	return "<?php" + c + " ?>" + src
}
