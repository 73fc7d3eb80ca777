package main

import (
	"sort"
	"strings"

	"repro/internal/obs"
)

// interval is a half-open time range [start, end) in Unix nanoseconds.
type interval struct{ start, end int64 }

// spanInterval returns the time a span covers. An unended span (the
// snapshot reports DurationNS 0) yields an empty interval at its start,
// so it covers nothing and takes nothing from its parent's self time.
func spanInterval(s obs.SpanSnapshot) interval {
	start := s.Start.UnixNano()
	return interval{start, start + s.DurationNS}
}

// unionLength returns how much of within the intervals cover together:
// each is clipped to within, and overlaps count once.
func unionLength(ivs []interval, within interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		iv.start = max(iv.start, within.start)
		iv.end = min(iv.end, within.end)
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur interval
	for _, iv := range clipped {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		cur.end = max(cur.end, iv.end)
	}
	return total + cur.end - cur.start
}

// childIntervals returns the intervals of the children of s whose names
// satisfy keep (all children when keep is nil).
func childIntervals(s obs.SpanSnapshot, keep func(string) bool) []interval {
	ivs := make([]interval, 0, len(s.Children))
	for _, c := range s.Children {
		if keep == nil || keep(c.Name) {
			ivs = append(ivs, spanInterval(c))
		}
	}
	return ivs
}

// selfTime is a span's duration minus the part of its interval its
// children cover. Children that run in parallel count once (wall time),
// so self time is never negative.
func selfTime(s obs.SpanSnapshot) int64 {
	return s.DurationNS - unionLength(childIntervals(s, nil), spanInterval(s))
}

// stageTotals accumulates the time a recorder's span trees spent in each
// layer, every figure a self time unless its name says otherwise.
//
// Two kinds of root span reach a recorder: the engine's scan root
// (children "model" and "taint"; model holds one "parse:<file>" per
// parsed file, each holding its "lex") and, inside the daemon, the
// server's attempt span "scan:<name>", which has no children because the
// engine opens its own root. The server span encloses the incremental
// layer's planning and write-back around the engine scan (or, on a fleet
// coordinator, the dispatch).
type stageTotals struct {
	engineScans int64 // engine root spans
	engineNS    int64 // Σ engine root durations
	lexNS       int64 // Σ lex spans (leaves)
	parseSelfNS int64 // Σ parse minus its lex children
	parseSumNS  int64 // Σ parse durations: summed across file workers
	parseWallNS int64 // Σ per-model union of parse intervals: wall time
	linkSelfNS  int64 // Σ model minus the union of its parse children
	taintNS     int64 // Σ taint spans
	otherNS     int64 // Σ engine root minus model and taint
	serverScans int64 // server attempt spans
	serverNS    int64 // Σ server attempt span durations
	spans       int64 // every span seen
	unended     int64 // spans with no recorded end
}

// add folds one recorder's root spans into the totals.
func (t *stageTotals) add(roots []obs.SpanSnapshot) {
	for _, r := range roots {
		t.count(r)
		if isEngineRoot(r) {
			t.addEngine(r)
		} else if strings.HasPrefix(r.Name, "scan:") {
			t.serverScans++
			t.serverNS += r.DurationNS
		}
	}
}

// count tallies a subtree's spans and its unended ones.
func (t *stageTotals) count(s obs.SpanSnapshot) {
	t.spans++
	if s.DurationNS == 0 {
		t.unended++
	}
	for _, c := range s.Children {
		t.count(c)
	}
}

// isEngineRoot reports whether a root span is an engine scan: it has the
// model or taint stage beneath it.
func isEngineRoot(s obs.SpanSnapshot) bool {
	for _, c := range s.Children {
		if c.Name == "model" || c.Name == "taint" {
			return true
		}
	}
	return false
}

func (t *stageTotals) addEngine(root obs.SpanSnapshot) {
	t.engineScans++
	t.engineNS += root.DurationNS
	t.otherNS += selfTime(root)
	for _, st := range root.Children {
		switch st.Name {
		case "model":
			t.addModel(st)
		case "taint":
			t.taintNS += st.DurationNS
		}
	}
}

func (t *stageTotals) addModel(model obs.SpanSnapshot) {
	isParse := func(name string) bool { return strings.HasPrefix(name, "parse:") }
	for _, p := range model.Children {
		if !isParse(p.Name) {
			continue
		}
		t.parseSumNS += p.DurationNS
		t.parseSelfNS += selfTime(p)
		for _, l := range p.Children {
			t.lexNS += l.DurationNS
		}
	}
	wall := unionLength(childIntervals(model, isParse), spanInterval(model))
	t.parseWallNS += wall
	t.linkSelfNS += model.DurationNS - wall
}
