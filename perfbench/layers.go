package main

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// layerMetrics lists the per-layer metrics a traced run prints, with
// their units. Engine stage times are means per engine scan (an op that
// ran the engine); service times are means per op or per event as
// README.md states. A layer a workload never exercises reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"phplex.self_ms", "ms"},
	{"phplex.tokens_per_s", "1/s"},
	{"phpparse.self_ms", "ms"},
	{"phpparse.nodes_per_s", "1/s"},
	{"pipeline.parallelism", "ratio"},
	{"taint.link_self_ms", "ms"},
	{"taint.interp_ms", "ms"},
	{"taint.other_ms", "ms"},
	{"taint.steps_per_op", "count"},
	{"taint.summary_reuse_ratio", "ratio"},
	{"server.submit_ms", "ms"},
	{"server.fetch_ms", "ms"},
	{"report.json_ms", "ms"},
	{"report.sarif_ms", "ms"},
	{"report.html_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"scancache.hit_ratio", "ratio"},
	{"scancache.hit_p50_ms", "ms"},
	{"incremental.reuse_ratio", "ratio"},
	{"incremental.overhead_ms", "ms"},
	{"incremental.rescan_p50_ms", "ms"},
	{"durable.appends_per_op", "count"},
	{"durable.fsyncs_per_op", "count"},
	{"durable.compactions_per_kop", "count"},
	{"durable.settle_ms", "ms"},
	{"fleet.dispatch_ms", "ms"},
	{"fleet.wire_ms", "ms"},
	{"fleet.worker_queue_wait_ms", "ms"},
	{"obs.tracing_overhead_pct", "%"},
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// window is what one recorder recorded during a measured window: the
// difference between a snapshot taken when the window opened and one
// taken after it closed.
type window struct {
	rec           *obs.Recorder
	opened        time.Time
	before, after obs.Snapshot
}

// openWindow snapshots rec's metrics as the window opens.
func openWindow(rec *obs.Recorder) *window {
	return &window{rec: rec, opened: time.Now(), before: rec.Snapshot()}
}

// close takes the closing snapshot.
func (w *window) close() { w.after = w.rec.Snapshot() }

// spans returns the root spans that started inside the window.
func (w *window) spans() []obs.SpanSnapshot {
	var out []obs.SpanSnapshot
	for _, s := range w.after.Spans {
		if !s.Start.Before(w.opened) {
			out = append(out, s)
		}
	}
	return out
}

// windows is the set of recorders one layer wrote to.
type windows []*window

func (ws windows) counter(name string) float64 {
	var n int64
	for _, w := range ws {
		n += w.after.Counters[name] - w.before.Counters[name]
	}
	return float64(n)
}

// hist returns a seconds histogram's sum (in ns) and count over the
// window.
func (ws windows) hist(name string) (sumNS float64, count int64) {
	for _, w := range ws {
		sumNS += (w.after.Histograms[name].Sum - w.before.Histograms[name].Sum) * 1e9
		count += w.after.Histograms[name].Count - w.before.Histograms[name].Count
	}
	return sumNS, count
}

// histMeanMS is a seconds histogram's mean over the window, in ms.
func (ws windows) histMeanMS(name string) float64 {
	sum, n := ws.hist(name)
	return ratio(sum/1e6, float64(n))
}

// totals folds the span trees of every window.
func (ws windows) totals() stageTotals {
	var t stageTotals
	for _, w := range ws {
		t.add(w.spans())
	}
	return t
}

// engineLayers fills the engine rows from the span totals and counters of
// the recorders the engines wrote to.
func engineLayers(m map[string]float64, t stageTotals, ws windows) {
	scans := float64(t.engineScans)
	perScan := func(ns int64) float64 { return ratio(float64(ns)/1e6, scans) }
	m["phplex.self_ms"] = perScan(t.lexNS)
	m["phplex.tokens_per_s"] = ratio(ws.counter("lex_tokens_total"), float64(t.lexNS)/1e9)
	m["phpparse.self_ms"] = perScan(t.parseSelfNS)
	m["phpparse.nodes_per_s"] = ratio(ws.counter("parse_ast_nodes_total"), float64(t.parseSelfNS)/1e9)
	m["pipeline.parallelism"] = ratio(float64(t.parseSumNS), float64(t.parseWallNS))
	m["taint.link_self_ms"] = perScan(t.linkSelfNS)
	m["taint.interp_ms"] = perScan(t.taintNS)
	m["taint.other_ms"] = perScan(t.otherNS)
	m["taint.steps_per_op"] = ratio(ws.counter("taint_propagation_iterations_total"), scans)
	reuses := ws.counter("taint_summary_reuses_total")
	m["taint.summary_reuse_ratio"] = ratio(reuses, reuses+ws.counter("taint_functions_analyzed_total"))
}

// checkSpans fails the phase when a recorder dropped spans at its cap or
// left spans unended: either would make the layer times undercount.
func (ph *phase) checkSpans(t stageTotals, ws windows) {
	var dropped int64
	for _, w := range ws {
		dropped += w.after.Counters["obs_spans_dropped_total"]
	}
	if dropped > 0 {
		ph.problems = append(ph.problems, fmt.Sprintf("recorders dropped %d spans at their cap", dropped))
	}
	if t.unended > 0 {
		ph.problems = append(ph.problems, fmt.Sprintf("%d spans never ended", t.unended))
	}
	ph.detail["spans_analyzed"] = t.spans
}
