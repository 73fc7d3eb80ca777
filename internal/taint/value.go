package taint

import (
	"math/bits"

	"repro/internal/analyzer"
)

// taintInfo carries the provenance of one vulnerability-class taint.
type taintInfo struct {
	// vector is where the data entered (GET, POST, DB, ...).
	vector analyzer.Vector
	// trace is the data-flow path so far, oldest step first.
	trace []analyzer.TraceStep
}

// withStep returns a copy of t with one more trace step appended. Traces
// are bounded: when the limit is reached the middle is elided so the
// source and the most recent hops remain visible.
func (t *taintInfo) withStep(limit int, step analyzer.TraceStep) *taintInfo {
	trace := make([]analyzer.TraceStep, 0, len(t.trace)+1)
	trace = append(trace, t.trace...)
	trace = append(trace, step)
	if limit > 2 && len(trace) > limit {
		// Keep the first and the last (limit-1) steps.
		head := trace[:1]
		tail := trace[len(trace)-(limit-1):]
		squeezed := make([]analyzer.TraceStep, 0, limit)
		squeezed = append(squeezed, head...)
		squeezed = append(squeezed, tail...)
		trace = squeezed
	}
	return &taintInfo{vector: t.vector, trace: trace}
}

// numClasses is the number of vulnerability classes: VulnClass values
// run from 1 to OpenRedirect.
const numClasses = int(analyzer.OpenRedirect)

// classSet is a set of vulnerability classes: bit c is set for class c.
type classSet uint16

// allClasses holds every vulnerability class.
const allClasses = classSet(1<<(numClasses+1) - 2)

// classBit returns the set holding only c.
func classBit(c analyzer.VulnClass) classSet { return 1 << uint(c) }

// has reports whether c is in the set.
func (s classSet) has(c analyzer.VulnClass) bool { return s&classBit(c) != 0 }

// list returns the classes in the set, in class order.
func (s classSet) list() []analyzer.VulnClass {
	if s == 0 {
		return nil
	}
	out := make([]analyzer.VulnClass, 0, bits.OnesCount16(uint16(s)))
	for c := analyzer.VulnClass(1); int(c) <= numClasses; c++ {
		if s.has(c) {
			out = append(out, c)
		}
	}
	return out
}

// taintSet maps vulnerability classes to their taint provenance: a
// fixed array with slot c-1 for class c, and the set of classes
// present. The zero value is empty, and a copy is independent of its
// source.
type taintSet struct {
	set classSet
	by  [numClasses]*taintInfo
}

// get returns the taint for class c, if present.
func (s *taintSet) get(c analyzer.VulnClass) (*taintInfo, bool) {
	if !s.set.has(c) {
		return nil, false
	}
	return s.by[c-1], true
}

// put sets the taint for class c.
func (s *taintSet) put(c analyzer.VulnClass, t *taintInfo) {
	s.set |= classBit(c)
	s.by[c-1] = t
}

// del removes class c.
func (s *taintSet) del(c analyzer.VulnClass) {
	s.set &^= classBit(c)
	s.by[c-1] = nil
}

// addMissing copies o's taints for the classes s lacks.
func (s *taintSet) addMissing(o *taintSet) {
	for i, t := range o.by {
		if c := analyzer.VulnClass(i + 1); o.set.has(c) && !s.set.has(c) {
			s.put(c, t)
		}
	}
}

// unionLatent returns the union of two latent sets, either of which may
// be nil; when one adds nothing to the other it returns the other
// itself, since latent sets are never modified once a value holds them.
func unionLatent(s, o *taintSet) *taintSet {
	if o == nil || (s != nil && o.set&^s.set == 0) {
		return s
	}
	if s == nil {
		return o
	}
	u := *s
	u.addMissing(o)
	return &u
}

// paramClasses is the set of classes for which a value depends on one
// parameter of the enclosing function.
type paramClasses struct {
	param   int
	classes classSet
}

// paramDep records that a value depends on the enclosing function's
// parameters, per vulnerability class: one entry per parameter, sorted
// by parameter number, none with an empty class set. It drives the
// function-summary instantiation (paper §III.C: "every function is
// analyzed only the first time it is called ... the data flow of the
// variables of this analysis is used to process future calls").
type paramDep []paramClasses

// add unions classes into parameter i's entry, in place.
func (d *paramDep) add(i int, classes classSet) {
	if classes == 0 {
		return
	}
	deps := *d
	k := 0
	for k < len(deps) && deps[k].param < i {
		k++
	}
	if k < len(deps) && deps[k].param == i {
		deps[k].classes |= classes
		return
	}
	deps = append(deps, paramClasses{})
	copy(deps[k+1:], deps[k:])
	deps[k] = paramClasses{param: i, classes: classes}
	*d = deps
}

// value is the abstract value of an expression or variable: which
// vulnerability classes it is tainted for, where that taint came from,
// which sanitizers neutralized it (latent taint that revert functions can
// resurrect, §III.A), its parameter dependencies in summary mode, and
// coarse type knowledge (object class, numeric).
//
// values are immutable after construction: the interpreter shares them
// freely (untainted and numericValue return one package-level value
// each), so every combinator that changes a value writes to a clone.
type value struct {
	// taints holds the active taint per vulnerability class.
	taints taintSet
	// latent holds taints neutralized by sanitizers, nil when there are
	// none; a revert function (stripslashes, urldecode, ...) moves them
	// back to taints. Latent taint is rare, so it lives out of line, and
	// the set it points to is never modified: writers replace it.
	latent *taintSet
	// params tracks symbolic dependence on function parameters.
	params paramDep
	// class is the lower-case class name when the value is a known
	// object (from "new X" or a configured global like $wpdb).
	class string
	// filters lists sanitizer names applied to the value, for reporting.
	filters []string
	// numeric marks values known to be numbers (arithmetic results,
	// casts); numeric values cannot carry attack payloads.
	numeric bool
}

// The shared clean values. Nothing may write to them: writers clone.
var (
	cleanValue   = &value{}
	cleanNumeric = &value{numeric: true}
)

// untainted returns the shared clean value.
func untainted() *value { return cleanValue }

// numericValue returns the shared clean numeric value.
func numericValue() *value { return cleanNumeric }

// objectValue returns a clean value of a known class.
func objectValue(class string) *value { return &value{class: class} }

// newTaint returns a value tainted for the given classes. The classes
// share one provenance record: taintInfo is immutable too.
func newTaint(classes []analyzer.VulnClass, vector analyzer.Vector, step analyzer.TraceStep) *value {
	t := &taintInfo{vector: vector, trace: []analyzer.TraceStep{step}}
	v := &value{}
	for _, c := range classes {
		v.taints.put(c, t)
	}
	return v
}

// paramValue returns a symbolic value depending on parameter i for all
// vulnerability classes.
func paramValue(i int) *value {
	return &value{params: paramDep{{param: i, classes: allClasses}}}
}

// isTainted reports whether the value carries active taint for class c.
func (v *value) isTainted(c analyzer.VulnClass) bool {
	return v != nil && v.taints.set.has(c)
}

// taintedClasses returns the classes with active taint.
func (v *value) taintedClasses() []analyzer.VulnClass {
	if v == nil {
		return nil
	}
	return v.taints.set.list()
}

// hasTaint reports whether the value carries any active taint.
func (v *value) hasTaint() bool { return v != nil && v.taints.set != 0 }

// hasParamDeps reports whether the value depends on any parameter.
func (v *value) hasParamDeps() bool { return v != nil && len(v.params) > 0 }

// isNeutral reports whether merging with v changes nothing: no taint,
// latent taint, parameter dependence, class or numeric knowledge.
func (v *value) isNeutral() bool {
	return v == nil || (v.taints.set == 0 && v.latent == nil && len(v.params) == 0 &&
		v.class == "" && !v.numeric)
}

// clone returns a copy of v that its caller may modify. A nil v clones
// to a fresh clean value, never to the shared one.
func (v *value) clone() *value {
	if v == nil {
		return &value{}
	}
	out := &value{taints: v.taints, latent: v.latent, class: v.class, numeric: v.numeric}
	if len(v.params) > 0 {
		out.params = append(paramDep(nil), v.params...)
	}
	if len(v.filters) > 0 {
		// Capped at its length, so an append copies instead of writing
		// into v's array.
		out.filters = v.filters[:len(v.filters):len(v.filters)]
	}
	return out
}

// merge returns the union of two values: taint from either side survives
// (string concatenation, branch joins). Numeric survives only when both
// sides are numeric; class knowledge survives when unambiguous.
func merge(a, b *value) *value {
	if a.isNeutral() {
		if b == nil {
			return untainted()
		}
		return b
	}
	if b.isNeutral() {
		return a
	}
	out := a.clone()
	out.numeric = a.numeric && b.numeric
	if out.class == "" {
		out.class = b.class
	}
	out.taints.addMissing(&b.taints)
	out.latent = unionLatent(out.latent, b.latent)
	for _, p := range b.params {
		out.params.add(p.param, p.classes)
	}
	out.filters = append(out.filters, b.filters...)
	return out
}

// mergeAll unions a list of values.
func mergeAll(vals ...*value) *value {
	out := untainted()
	for _, v := range vals {
		out = merge(out, v)
	}
	return out
}

// sanitize returns a copy of v with the given classes neutralized: active
// taints move to the latent set, and parameter dependencies for those
// classes are dropped. The sanitizer name is recorded for reporting.
func (v *value) sanitize(classes []analyzer.VulnClass, name string) *value {
	out := v.clone()
	var latent taintSet
	if v.latent != nil {
		latent = *v.latent
	}
	moved := false
	var cleared classSet
	for _, c := range classes {
		if t, ok := out.taints.get(c); ok {
			out.taints.del(c)
			latent.put(c, t)
			moved = true
		}
		cleared |= classBit(c)
	}
	if moved {
		// Only this copy escapes, so a sanitizer that moves nothing
		// allocates no set.
		l := latent
		out.latent = &l
	}
	kept := out.params[:0]
	for _, p := range out.params {
		if p.classes &^= cleared; p.classes != 0 {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 {
		kept = nil
	}
	out.params = kept
	out.filters = append(out.filters, name)
	return out
}

// revert returns a copy of v with latent taints re-activated (the effect
// of stripslashes and friends, §III.A).
func (v *value) revert(name string, limit int, step analyzer.TraceStep) *value {
	out := v.clone()
	if out.latent != nil {
		for _, c := range out.latent.set.list() {
			if !out.taints.set.has(c) {
				t, _ := out.latent.get(c)
				out.taints.put(c, t.withStep(limit, step))
			}
		}
	}
	out.latent = nil
	out.filters = append(out.filters, name)
	return out
}

// toNumeric returns a clean numeric value (arithmetic, numeric casts).
func toNumeric() *value { return numericValue() }

// withStep returns a copy of v whose active taints carry one more trace
// step (an assignment hop). Classes that shared a provenance record
// share the extended one.
func (v *value) withStep(limit int, step analyzer.TraceStep) *value {
	if !v.hasTaint() {
		return v
	}
	out := v.clone()
	var last, next *taintInfo
	for i, t := range out.taints.by {
		if !out.taints.set.has(analyzer.VulnClass(i + 1)) {
			continue
		}
		if t != last {
			last, next = t, t.withStep(limit, step)
		}
		out.taints.by[i] = next
	}
	return out
}
