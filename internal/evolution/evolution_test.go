package evolution

import (
	"context"
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/corpus"
	"repro/internal/rulepack"
	"repro/internal/taint"
)

// find builds a finding for matcher tests.
func find(file string, line int, class analyzer.VulnClass, sink, variable string,
	vector analyzer.Vector) analyzer.Finding {
	return analyzer.Finding{
		Tool: "phpSAFE", File: file, Line: line, Class: class,
		Sink: sink, Variable: variable, Vector: vector,
	}
}

func TestCompareClassification(t *testing.T) {
	t.Parallel()
	oldRes := &analyzer.Result{Target: "p", Findings: []analyzer.Finding{
		find("a.php", 10, analyzer.XSS, "echo", "name", analyzer.VectorGET),       // persists (moves to line 14)
		find("a.php", 20, analyzer.SQLi, "mysql_query", "id", analyzer.VectorGET), // fixed
	}}
	newRes := &analyzer.Result{Target: "p", Findings: []analyzer.Finding{
		find("a.php", 14, analyzer.XSS, "echo", "name", analyzer.VectorGET), // persisting
		find("b.php", 5, analyzer.XSS, "print", "bio", analyzer.VectorPOST), // introduced
	}}
	r := Compare(oldRes, newRes, "1.0", "2.0")

	if r.Count(Persisting) != 1 || r.Count(Fixed) != 1 || r.Count(Introduced) != 1 {
		t.Fatalf("counts = fixed %d / persisting %d / introduced %d",
			r.Count(Fixed), r.Count(Persisting), r.Count(Introduced))
	}
	if got := r.PersistShare(); got != 0.5 {
		t.Errorf("persist share = %v, want 0.5", got)
	}
	if got := r.PersistingEasy(); got != 1 {
		t.Errorf("persisting easy = %d, want 1 (GET vector)", got)
	}
}

func TestCompareLineMovementIgnored(t *testing.T) {
	t.Parallel()
	oldRes := &analyzer.Result{Target: "p", Findings: []analyzer.Finding{
		find("a.php", 10, analyzer.XSS, "echo", "title7", analyzer.VectorDB),
	}}
	newRes := &analyzer.Result{Target: "p", Findings: []analyzer.Finding{
		// Same vulnerability, different line AND renamed counter suffix.
		find("a.php", 182, analyzer.XSS, "echo", "title12", analyzer.VectorDB),
	}}
	r := Compare(oldRes, newRes, "old", "new")
	if r.Count(Persisting) != 1 || r.Count(Fixed) != 0 || r.Count(Introduced) != 0 {
		t.Fatalf("changes = %+v, want one persisting", r.Changes)
	}
}

func TestCompareDifferentSinkIsDifferentVuln(t *testing.T) {
	t.Parallel()
	oldRes := &analyzer.Result{Target: "p", Findings: []analyzer.Finding{
		find("a.php", 10, analyzer.XSS, "echo", "x", analyzer.VectorGET),
	}}
	newRes := &analyzer.Result{Target: "p", Findings: []analyzer.Finding{
		find("a.php", 10, analyzer.XSS, "printf", "x", analyzer.VectorGET),
	}}
	r := Compare(oldRes, newRes, "old", "new")
	if r.Count(Fixed) != 1 || r.Count(Introduced) != 1 {
		t.Fatalf("changes = %+v, want fixed+introduced", r.Changes)
	}
}

func TestCompareNilTolerant(t *testing.T) {
	t.Parallel()
	r := Compare(nil, &analyzer.Result{Target: "p", Findings: []analyzer.Finding{
		find("a.php", 1, analyzer.XSS, "echo", "x", analyzer.VectorGET),
	}}, "old", "new")
	if r.Count(Introduced) != 1 {
		t.Fatalf("nil old: %+v", r.Changes)
	}
	r2 := Compare(nil, nil, "a", "b")
	if len(r2.Changes) != 0 {
		t.Fatal("nil/nil should have no changes")
	}
}

func TestTrackHistory(t *testing.T) {
	t.Parallel()
	v1 := &analyzer.Result{Target: "p", Findings: []analyzer.Finding{
		find("a.php", 1, analyzer.XSS, "echo", "x", analyzer.VectorGET),
		find("a.php", 2, analyzer.XSS, "echo", "y", analyzer.VectorPOST),
	}}
	v2 := &analyzer.Result{Target: "p", Findings: []analyzer.Finding{
		find("a.php", 1, analyzer.XSS, "echo", "x", analyzer.VectorGET), // persists
	}}
	v3 := &analyzer.Result{Target: "p", Findings: []analyzer.Finding{
		find("a.php", 1, analyzer.XSS, "echo", "x", analyzer.VectorGET),    // persists
		find("c.php", 9, analyzer.SQLi, "query", "id", analyzer.VectorGET), // introduced
	}}
	h, err := Track([]string{"1.0", "1.1", "2.0"}, []*analyzer.Result{v1, v2, v3})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(h.Steps))
	}
	if h.TotalFixed() != 1 || h.TotalIntroduced() != 1 {
		t.Errorf("fixed=%d introduced=%d, want 1/1", h.TotalFixed(), h.TotalIntroduced())
	}
	s := h.Summary()
	for _, want := range []string{"1.0 -> 1.1", "1.1 -> 2.0", "fixed", "persisting"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestTrackValidation(t *testing.T) {
	t.Parallel()
	if _, err := Track([]string{"a"}, []*analyzer.Result{{}}); err == nil {
		t.Error("single version should error")
	}
	if _, err := Track([]string{"a", "b"}, []*analyzer.Result{{}}); err == nil {
		t.Error("mismatched lengths should error")
	}
}

// TestCorpusEvolutionMatchesLabels runs the real engine over both
// versions of one corpus plugin and checks the evolution report's
// persisting count against the generator's persistence labels.
func TestCorpusEvolutionMatchesLabels(t *testing.T) {
	t.Parallel()
	c12, c14 := corpus.MustGenerate()
	const plugin = "mail-subscribe-list"
	engine := taint.New(rulepack.MustCompile("wordpress"), taint.DefaultOptions())

	res12, err := engine.AnalyzeContext(context.Background(), c12.Target(plugin), nil)
	if err != nil {
		t.Fatal(err)
	}
	res14, err := engine.AnalyzeContext(context.Background(), c14.Target(plugin), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := Compare(res12, res14, "2012", "2014")

	// Labelled persisting vulnerabilities of this plugin that phpSAFE can
	// see (exclude register_globals, which it cannot detect).
	labelled := 0
	for _, g := range c14.Truths {
		if g.Plugin == plugin && g.Persists && !g.RegisterGlobals {
			labelled++
		}
	}
	got := r.Count(Persisting)
	// Structural matching may merge a few same-signature snippets, so
	// allow slack but demand the right magnitude.
	if got < labelled/2 || got > labelled+5 {
		t.Errorf("persisting = %d, labelled = %d (out of plausible range)", got, labelled)
	}
	if r.Count(Introduced) == 0 {
		t.Error("2014 should introduce new vulnerabilities")
	}
}
