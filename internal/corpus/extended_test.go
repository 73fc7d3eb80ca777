package corpus

import (
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/phpparse"
)

// extendedSpec is the default spec with the extra vulnerability classes
// switched on.
func extendedSpec() Spec {
	spec := DefaultSpec()
	spec.ExtendedClasses = true
	return spec
}

// baseClasses are the paper's evaluation classes; everything else comes
// from extendedVulnDistribution.
func isBaseClass(c analyzer.VulnClass) bool {
	return c == analyzer.XSS || c == analyzer.SQLi
}

func TestDefaultCorpusHasNoExtendedClasses(t *testing.T) {
	t.Parallel()
	for _, c := range []*Corpus{gen2012, gen2014} {
		for _, g := range c.Truths {
			if !isBaseClass(g.Class) {
				t.Errorf("%s: default corpus seeded extended class %s (%s)",
					c.Version, g.Class, g.ID)
			}
		}
	}
}

func TestExtendedClassesSeeded(t *testing.T) {
	t.Parallel()
	e12, e14, err := Generate(extendedSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := []analyzer.VulnClass{
		analyzer.CmdInjection,
		analyzer.CodeEval,
		analyzer.PathTraversal,
		analyzer.FileInclusion,
		analyzer.OpenRedirect,
	}
	for _, c := range []*Corpus{e12, e14} {
		seeded := make(map[analyzer.VulnClass]int)
		for _, g := range c.Truths {
			seeded[g.Class]++
		}
		for _, class := range want {
			if seeded[class] == 0 {
				t.Errorf("%s: extended corpus has no %s vulnerabilities", c.Version, class)
			}
		}
	}

	// The 2014 extended snapshot must carry the full per-row budget.
	wantTotal := 0
	for _, row := range extendedVulnDistribution {
		wantTotal += row.both + row.only14
	}
	got := 0
	for _, g := range e14.Truths {
		if !isBaseClass(g.Class) {
			got++
		}
	}
	if got != wantTotal {
		t.Errorf("2014 extended vuln count = %d, want %d", got, wantTotal)
	}
}

func TestExtendedBaseUnperturbed(t *testing.T) {
	t.Parallel()
	// Enabling ExtendedClasses must reproduce the base vulnerabilities
	// with unchanged identity: same IDs, classes, vectors and kinds, in
	// the same order (extended rows expand strictly after the base rows,
	// so the base rng draws are a shared prefix).
	_, e14, err := Generate(extendedSpec())
	if err != nil {
		t.Fatal(err)
	}
	var base []GroundTruth
	for _, g := range e14.Truths {
		if isBaseClass(g.Class) {
			base = append(base, g)
		}
	}
	if len(base) != len(gen2014.Truths) {
		t.Fatalf("extended corpus has %d base truths, default has %d",
			len(base), len(gen2014.Truths))
	}
	for i, g := range gen2014.Truths {
		got := base[i]
		if got.ID != g.ID || got.Class != g.Class || got.Vector != g.Vector || got.Kind != g.Kind {
			t.Fatalf("base truth %d drifted: got %+v, want %+v", i, got, g)
		}
	}
}

func TestExtendedCorpusParsesAndPointsAtSinks(t *testing.T) {
	t.Parallel()
	e12, e14, err := Generate(extendedSpec())
	if err != nil {
		t.Fatal(err)
	}
	sinkHints := []string{
		"echo", "print", "query", // base classes
		"system", "exec(", "passthru", // cmd-exec
		"assert",                      // eval-inject
		"readfile", "fopen", "unlink", // path-read
		"include", "require", // include-get
		"header", // header-redirect
	}
	for _, c := range []*Corpus{e12, e14} {
		for _, target := range c.Targets {
			for _, f := range target.Files {
				parsed := phpparse.Parse(f.Path, f.Content, phpparse.Options{})
				if len(parsed.Errors) > 0 {
					t.Errorf("%s %s/%s: parse errors: %v",
						c.Version, target.Name, f.Path, parsed.Errors[:min(3, len(parsed.Errors))])
				}
			}
		}
		for _, g := range c.Truths {
			target := c.Target(g.Plugin)
			file, ok := target.File(g.File)
			if !ok {
				t.Fatalf("%s: missing file %s", g.Plugin, g.File)
			}
			lines := strings.Split(file.Content, "\n")
			if g.Line < 1 || g.Line > len(lines) {
				t.Fatalf("%s %s:%d out of range", g.Plugin, g.File, g.Line)
			}
			text := lines[g.Line-1]
			found := false
			for _, hint := range sinkHints {
				if strings.Contains(text, hint) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s %s %s:%d does not look like a sink: %q",
					c.Version, g.Plugin, g.File, g.Line, text)
			}
		}
	}
}
