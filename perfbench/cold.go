package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/analyzer"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/taint"
)

// coldRunner is the corpus-cold workload: one client scans every plugin
// of both snapshots per pass, each scan cold, through the engine
// eval.BuildTool("phpsafe", "wordpress") builds, with the default
// per-scan file workers. No daemon, cache, journal or incremental store
// is involved: this is the paper's Table III measurement.
type coldRunner struct {
	in     *inputs
	engine *taint.Engine
	traced bool
}

func newCold(in *inputs, traced bool, _ string) (runner, error) {
	a, err := eval.BuildTool("phpsafe", "wordpress", eval.ToolOptions{})
	if err != nil {
		return nil, fmt.Errorf("building phpsafe: %w", err)
	}
	eng, ok := a.(*taint.Engine)
	if !ok {
		return nil, fmt.Errorf("phpsafe tool is %T, want *taint.Engine", a)
	}
	r := &coldRunner{in: in, engine: eng, traced: traced}
	// Warm-up: one untimed pass, so lazy runtime set-up is paid here.
	r.pass(context.Background(), -1, eng)
	return r, nil
}

func (r *coldRunner) close() {}

// measure runs whole passes until d has elapsed. Each pass is scored
// against the corpus labels; in a traced run each pass gets a fresh
// recorder, so no recorder comes near its span cap.
func (r *coldRunner) measure(d time.Duration) (*phase, error) {
	ph := newPhase()
	var ws windows
	var steps []float64
	ctx := context.Background()
	for pass := 0; ph.elapsed < d; pass++ {
		eng := r.engine
		var w *window
		if r.traced {
			w = openWindow(obs.NewRecorder())
			eng = eng.WithRecorder(w.rec)
		}
		start := time.Now()
		order, ops, results := r.pass(ctx, pass, eng)
		passTime := time.Since(start)
		ph.elapsed += passTime
		ph.passSeconds = append(ph.passSeconds, passTime.Seconds())
		score(pass, order, ops, results, r.in.v2012, r.in.v2014)
		ph.ops = append(ph.ops, ops...)
		if w != nil {
			w.close()
			ws = append(ws, w)
			steps = append(steps, windows{w}.counter("taint_propagation_iterations_total"))
		}
	}
	ph.rssMB = peakRSSMB()
	if r.traced {
		tot := ws.totals()
		engineLayers(ph.layers, tot, ws)
		ph.checkSpans(tot, ws)
		// The engine is deterministic: every pass must take the same
		// number of interpreter steps.
		ph.detail["taint_steps_per_pass"] = steps
		for _, s := range steps {
			if s != steps[0] {
				ph.problems = append(ph.problems, fmt.Sprintf("taint steps differ across passes: %v", steps))
				break
			}
		}
	}
	return ph, nil
}

// pass scans every plugin once, in the pass's seeded order. It returns
// the order, one op per plugin and the results in the same order.
func (r *coldRunner) pass(ctx context.Context, pass int, eng *taint.Engine) ([]*analyzer.Target, []opRecord, []*analyzer.Result) {
	order := r.in.coldOrder(max(pass, 0))
	ops := make([]opRecord, len(order))
	results := make([]*analyzer.Result, len(order))
	for i, t := range order {
		start := time.Now()
		res, err := eng.AnalyzeContext(ctx, t, nil)
		ops[i] = opRecord{step: -1, pass: pass, lines: r.in.lines[t], ms: msSince(start)}
		if err != nil {
			ops[i].fail = fmt.Sprintf("scan of %s: %v", t.Name, err)
		}
		results[i] = res
	}
	return order, ops, results
}

// score checks one pass's findings per snapshot against the pinned
// Table I outcome; a snapshot that misses it fails all its ops.
func score(pass int, order []*analyzer.Target, ops []opRecord, results []*analyzer.Result, snapshots ...*corpus.Corpus) {
	byTarget := make(map[*analyzer.Target]*analyzer.Result, len(order))
	for i, t := range order {
		byTarget[t] = results[i]
	}
	for _, c := range snapshots {
		run := &eval.ToolRun{Tool: "phpSAFE"}
		inSnapshot := make(map[*analyzer.Target]bool, len(c.Targets))
		for _, t := range c.Targets {
			res := byTarget[t]
			if res == nil {
				res = &analyzer.Result{}
			}
			run.Results = append(run.Results, res)
			inSnapshot[t] = true
		}
		got := eval.Evaluate(c, []*eval.ToolRun{run}).Tool(run.Tool).Global
		want := pinnedTruth[corpus.DefaultSpec().Seed][c.Version]
		if got.TP == want[0] && got.FP == want[1] {
			continue
		}
		why := fmt.Sprintf("%s pass %d: phpSAFE TP/FP %d/%d, want %d/%d", c.Version, pass, got.TP, got.FP, want[0], want[1])
		for i, t := range order {
			if inSnapshot[t] && ops[i].fail == "" {
				ops[i].fail = why
			}
		}
	}
}

// msSince is the time since start in milliseconds.
func msSince(start time.Time) float64 {
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
