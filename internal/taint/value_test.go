package taint

import (
	"testing"
	"testing/quick"

	"repro/internal/analyzer"
)

// step is a shared trace step for tests.
var step = analyzer.TraceStep{File: "f.php", Line: 1, Var: "$x", Note: "test"}

func TestNewTaintAndPredicates(t *testing.T) {
	t.Parallel()
	v := newTaint([]analyzer.VulnClass{analyzer.XSS}, analyzer.VectorGET, step)
	if !v.isTainted(analyzer.XSS) || v.isTainted(analyzer.SQLi) {
		t.Fatalf("taints = %v", v.taintedClasses())
	}
	all := newTaint(analyzer.Classes(), analyzer.VectorPOST, step)
	if got := all.taintedClasses(); len(got) != len(analyzer.Classes()) {
		t.Fatalf("taintedClasses = %v, want every class", got)
	}
	if untainted().isTainted(analyzer.XSS) {
		t.Error("untainted value is tainted")
	}
	var nilVal *value
	if nilVal.isTainted(analyzer.XSS) || nilVal.taintedClasses() != nil {
		t.Error("nil value should behave as untainted")
	}
}

func TestMergeUnionsTaint(t *testing.T) {
	t.Parallel()
	xss := newTaint([]analyzer.VulnClass{analyzer.XSS}, analyzer.VectorGET, step)
	sqli := newTaint([]analyzer.VulnClass{analyzer.SQLi}, analyzer.VectorDB, step)
	m := merge(xss, sqli)
	if !m.isTainted(analyzer.XSS) || !m.isTainted(analyzer.SQLi) {
		t.Fatalf("merge lost taint: %v", m.taintedClasses())
	}
	// The inputs must be unchanged (immutability).
	if xss.isTainted(analyzer.SQLi) || sqli.isTainted(analyzer.XSS) {
		t.Error("merge mutated its inputs")
	}
	// Vector of the first taint wins for provenance.
	if xt, _ := m.taints.get(analyzer.XSS); xt.vector != analyzer.VectorGET {
		t.Errorf("XSS vector = %v", xt.vector)
	}
}

func TestMergeNumericAndClass(t *testing.T) {
	t.Parallel()
	n1, n2 := numericValue(), numericValue()
	if !merge(n1, n2).numeric {
		t.Error("numeric ∧ numeric should stay numeric")
	}
	if merge(n1, untainted()).numeric {
		// untainted() is the neutral element: merge returns the other
		// side unchanged, which is numeric here.
		t.Log("merge with neutral keeps the non-neutral side")
	}
	tainted := newTaint(analyzer.Classes(), analyzer.VectorGET, step)
	if merge(numericValue(), tainted).numeric {
		t.Error("numeric ∧ tainted-string should not be numeric")
	}
	obj := objectValue("wpdb")
	if got := merge(obj, untainted()).class; got != "wpdb" {
		t.Errorf("class lost in merge: %q", got)
	}
}

func TestSanitizeMovesToLatentAndRevertRestores(t *testing.T) {
	t.Parallel()
	v := newTaint(analyzer.Classes(), analyzer.VectorGET, step)
	s := v.sanitize([]analyzer.VulnClass{analyzer.SQLi}, "addslashes")
	if s.isTainted(analyzer.SQLi) {
		t.Fatal("sanitize did not clear SQLi")
	}
	if !s.isTainted(analyzer.XSS) {
		t.Fatal("sanitize cleared the wrong class")
	}
	if s.latent == nil || len(s.latent.set.list()) != 1 || !s.latent.set.has(analyzer.SQLi) {
		t.Fatalf("latent = %v, want the sanitized taint", s.latent)
	}
	if len(s.filters) != 1 || s.filters[0] != "addslashes" {
		t.Fatalf("filters = %v", s.filters)
	}
	// Original untouched.
	if !v.isTainted(analyzer.SQLi) {
		t.Fatal("sanitize mutated its input")
	}

	r := s.revert("stripslashes", 12, step)
	if !r.isTainted(analyzer.SQLi) || !r.isTainted(analyzer.XSS) {
		t.Fatalf("revert did not restore taint: %v", r.taintedClasses())
	}
	if r.latent != nil {
		t.Fatalf("latent should drain on revert: %v", r.latent)
	}
}

func TestParamDependencies(t *testing.T) {
	t.Parallel()
	p := paramValue(0)
	if !p.hasParamDeps() {
		t.Fatal("param value should have deps")
	}
	s := p.sanitize([]analyzer.VulnClass{analyzer.XSS}, "esc_html")
	if s.params[0].param != 0 || s.params[0].classes.has(analyzer.XSS) {
		t.Error("sanitize should clear the class from param deps")
	}
	if !s.params[0].classes.has(analyzer.SQLi) {
		t.Error("sanitize cleared too much")
	}
	s2 := s.sanitize(analyzer.Classes(), "intval")
	if s2.hasParamDeps() {
		t.Error("fully sanitized param deps should vanish")
	}
}

func TestTraceBounding(t *testing.T) {
	t.Parallel()
	limit := 5
	v := newTaint([]analyzer.VulnClass{analyzer.XSS}, analyzer.VectorGET, step)
	for i := 0; i < 20; i++ {
		v = v.withStep(limit, analyzer.TraceStep{File: "f.php", Line: i + 2, Var: "$x"})
	}
	xt, _ := v.taints.get(analyzer.XSS)
	trace := xt.trace
	if len(trace) > limit {
		t.Fatalf("trace length = %d, want <= %d", len(trace), limit)
	}
	// The source step must survive the elision.
	if trace[0].Note != "test" {
		t.Errorf("first step lost: %+v", trace[0])
	}
	// The newest step must be present.
	if trace[len(trace)-1].Line != 21 {
		t.Errorf("last step = %+v, want line 21", trace[len(trace)-1])
	}
}

func TestWithStepNoTaintIsNoop(t *testing.T) {
	t.Parallel()
	v := untainted()
	if got := v.withStep(10, step); got != v {
		t.Error("withStep on untainted value should be a no-op")
	}
}

func TestCloneIndependence(t *testing.T) {
	t.Parallel()
	v := newTaint(analyzer.Classes(), analyzer.VectorGET, step)
	v.filters = []string{"a"}
	c := v.clone()
	c.filters = append(c.filters, "b")
	c.taints.del(analyzer.XSS)
	if len(v.filters) != 1 || !v.isTainted(analyzer.XSS) {
		t.Fatal("clone aliases its source")
	}
	var nilVal *value
	if c := nilVal.clone(); c == nil || c == untainted() {
		t.Fatal("clone of nil should produce a fresh value")
	}
}

// TestQuickMergeMonotone checks the lattice property: merging never
// removes taint from either operand's class set.
func TestQuickMergeMonotone(t *testing.T) {
	t.Parallel()
	mk := func(bits uint8) *value {
		var classes []analyzer.VulnClass
		if bits&1 != 0 {
			classes = append(classes, analyzer.XSS)
		}
		if bits&2 != 0 {
			classes = append(classes, analyzer.SQLi)
		}
		if len(classes) == 0 {
			return untainted()
		}
		return newTaint(classes, analyzer.VectorGET, step)
	}
	f := func(a, b uint8) bool {
		va, vb := mk(a), mk(b)
		m := merge(va, vb)
		for _, c := range analyzer.Classes() {
			if (va.isTainted(c) || vb.isTainted(c)) && !m.isTainted(c) {
				return false
			}
			if m.isTainted(c) && !va.isTainted(c) && !vb.isTainted(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMergeCommutativeTaintSet checks the taint set (not provenance)
// is commutative.
func TestQuickMergeCommutativeTaintSet(t *testing.T) {
	t.Parallel()
	mk := func(bits uint8) *value {
		v := untainted()
		if bits&1 != 0 {
			v = merge(v, newTaint([]analyzer.VulnClass{analyzer.XSS}, analyzer.VectorGET, step))
		}
		if bits&2 != 0 {
			v = merge(v, newTaint([]analyzer.VulnClass{analyzer.SQLi}, analyzer.VectorDB, step))
		}
		if bits&4 != 0 {
			v = merge(v, numericValue())
		}
		return v
	}
	f := func(a, b uint8) bool {
		ab := merge(mk(a), mk(b))
		ba := merge(mk(b), mk(a))
		for _, c := range analyzer.Classes() {
			if ab.isTainted(c) != ba.isTainted(c) {
				return false
			}
		}
		return ab.numeric == ba.numeric
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSanitizeRevertRoundTrip checks sanitize followed by revert
// restores the original taint set for any class subset.
func TestQuickSanitizeRevertRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(bits uint8) bool {
		var classes []analyzer.VulnClass
		if bits&1 != 0 {
			classes = append(classes, analyzer.XSS)
		}
		if bits&2 != 0 {
			classes = append(classes, analyzer.SQLi)
		}
		v := newTaint(analyzer.Classes(), analyzer.VectorGET, step)
		round := v.sanitize(classes, "s").revert("r", 12, step)
		for _, c := range analyzer.Classes() {
			if !round.isTainted(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeAll(t *testing.T) {
	t.Parallel()
	vals := []*value{
		untainted(),
		newTaint([]analyzer.VulnClass{analyzer.XSS}, analyzer.VectorGET, step),
		nil,
		newTaint([]analyzer.VulnClass{analyzer.SQLi}, analyzer.VectorDB, step),
	}
	m := mergeAll(vals...)
	if len(m.taintedClasses()) != 2 {
		t.Fatalf("mergeAll = %v", m.taintedClasses())
	}
	if got := mergeAll(); got == nil || got.isTainted(analyzer.XSS) {
		t.Error("empty mergeAll should be untainted")
	}
}

// TestClassSetCoversEveryClass pins the fixed-size class arrays to the
// analyzer's class list: a class added past OpenRedirect must grow them.
func TestClassSetCoversEveryClass(t *testing.T) {
	t.Parallel()
	for _, c := range analyzer.Classes() {
		if c < 1 || int(c) > numClasses || !allClasses.has(c) {
			t.Errorf("class %v (%d) is outside the taint set's %d slots", c, int(c), numClasses)
		}
	}
	if got := allClasses.list(); len(got) != len(analyzer.Classes()) {
		t.Errorf("allClasses = %v, want %v", got, analyzer.Classes())
	}
}
