package main

import (
	"testing"
	"time"

	"repro/internal/obs"
)

var epoch = time.Unix(1_700_000_000, 0)

// span builds a snapshot starting at offset ms with the given duration
// in ms; a negative duration makes an unended span.
func span(name string, offset, dur int64, children ...obs.SpanSnapshot) obs.SpanSnapshot {
	s := obs.SpanSnapshot{
		Name:     name,
		Start:    epoch.Add(time.Duration(offset) * time.Millisecond),
		Children: children,
	}
	if dur >= 0 {
		s.DurationNS = (time.Duration(dur) * time.Millisecond).Nanoseconds()
	}
	return s
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name string
		span obs.SpanSnapshot
		want float64
	}{
		{"leaf", span("p", 0, 100), 100},
		{"nested", span("p", 0, 100, span("c", 10, 20, span("g", 12, 5))), 80},
		{"sequential children", span("p", 0, 100, span("a", 0, 30), span("b", 50, 30)), 40},
		{"overlapping children", span("p", 0, 100, span("a", 10, 40), span("b", 30, 40)), 40},
		{"identical parallel children", span("p", 0, 100, span("a", 0, 60), span("b", 0, 60)), 40},
		{"child past the parent's end", span("p", 0, 100, span("a", 80, 50)), 80},
		{"child before the parent's start", span("p", 10, 100, span("a", 0, 20)), 90},
		{"unended child", span("p", 0, 100, span("a", 10, -1)), 100},
		{"unended parent", span("p", 0, -1, span("a", 10, 20)), 0},
	}
	for _, tc := range cases {
		if got := ms(selfTime(tc.span)); got != tc.want {
			t.Errorf("%s: self time %.1f ms, want %.1f", tc.name, got, tc.want)
		}
	}
}

func TestStageTotalsEngineTree(t *testing.T) {
	// Two files parsed in parallel inside model, then taint; the root
	// keeps 10 ms outside both stages.
	engine := span("scan:plugin", 0, 100,
		span("model", 0, 60,
			span("parse:a.php", 5, 40, span("lex", 5, 10)),
			span("parse:b.php", 5, 20, span("lex", 5, 5), span("lex", 15, 5)),
		),
		span("taint", 60, 30),
	)
	server := span("scan:plugin", 0, 110)
	var tot stageTotals
	tot.add([]obs.SpanSnapshot{server, engine})

	checks := []struct {
		name      string
		got, want float64
	}{
		{"engine scans", float64(tot.engineScans), 1},
		{"server scans", float64(tot.serverScans), 1},
		{"lex", ms(tot.lexNS), 20},
		{"parse self", ms(tot.parseSelfNS), 40},
		{"parse summed", ms(tot.parseSumNS), 60},
		{"parse wall", ms(tot.parseWallNS), 40},
		{"link self", ms(tot.linkSelfNS), 20},
		{"taint", ms(tot.taintNS), 30},
		{"other", ms(tot.otherNS), 10},
		{"server outside engine", ms(tot.serverNS - tot.engineNS), 10},
		{"spans", float64(tot.spans), 9},
		{"unended", float64(tot.unended), 0},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestStageTotalsCountsUnendedSpans(t *testing.T) {
	engine := span("scan:p", 0, 50, span("model", 0, -1, span("parse:a.php", 0, 10)), span("taint", 20, 10))
	var tot stageTotals
	tot.add([]obs.SpanSnapshot{engine})
	if tot.unended != 1 {
		t.Fatalf("unended = %d, want 1", tot.unended)
	}
	// The unended model covers nothing, so the root keeps everything
	// outside taint, and the model's link time is clipped to zero length
	// rather than going negative.
	if got := ms(tot.otherNS); got != 40 {
		t.Errorf("other = %v ms, want 40", got)
	}
	if tot.linkSelfNS != 0 || tot.parseWallNS != 0 {
		t.Errorf("link self %d ns, parse wall %d ns; want 0 and 0", tot.linkSelfNS, tot.parseWallNS)
	}
}

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if q, v, beyond := tailPercentile(xs); q != 0.99 || v != 1980 || beyond != 20 {
		t.Errorf("2000 samples: q=%v v=%v beyond=%d, want 0.99 1980 20", q, v, beyond)
	}
	// With 200 samples the highest percentile leaving ten beyond is 95.
	if q, v, beyond := tailPercentile(xs[:200]); q != 0.95 || v != 190 || beyond != 10 {
		t.Errorf("200 samples: q=%v v=%v beyond=%d, want 0.95 190 10", q, v, beyond)
	}
	if got := percentile(xs[:5], 0.5); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
}
