package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analyzer"
	"repro/internal/eval"
	"repro/internal/report"
)

// opTimeout bounds one op; an op that takes longer fails.
const opTimeout = time.Minute

// serviceRunner drives service-history (a standalone daemon) and
// service-fleet (a coordinator with two workers) with the same stream:
// closed-loop clients, one per CPU up to two, each walking one plugin's
// version history at a time. Within a pass every plugin's history runs
// once, on content no earlier pass used.
//
// Each pass runs against a freshly booted stack (the boot is not timed).
// The daemon's scan registry, and with it the live set every journal
// compaction rewrites, grows with every scan it has seen; on one
// long-lived daemon the cost of an op would depend on how long the run
// had been going. A fresh stack per pass makes every pass the same work,
// so the figures do not depend on run length. Nothing is lost by it:
// a pass's content is new to every cache anyway.
type serviceRunner struct {
	in     *inputs
	traced bool
	fleet  bool
	boot   func() (*stack, error)
	st     *stack // the current pass's stack; replaced only between passes
	client *http.Client
	// engine is the in-process phpSAFE the oracle compares against.
	engine analyzer.Analyzer
}

// clientCount is the number of closed-loop clients: one per CPU, at most
// two.
func clientCount() int { return min(max(runtime.NumCPU(), 1), 2) }

func newStandaloneService(in *inputs, traced bool, workdir string) (runner, error) {
	return newService(in, traced, false, workdir)
}

func newFleetService(in *inputs, traced bool, workdir string) (runner, error) {
	return newService(in, traced, true, workdir)
}

func newService(in *inputs, traced, isFleet bool, workdir string) (runner, error) {
	engine, err := eval.BuildTool("phpsafe", "wordpress", eval.ToolOptions{})
	if err != nil {
		return nil, fmt.Errorf("building phpsafe: %w", err)
	}
	boot := func() (*stack, error) { return bootStandalone(workdir) }
	if isFleet {
		boot = func() (*stack, error) { return bootFleet(workdir) }
	}
	r := &serviceRunner{in: in, traced: traced, fleet: isFleet, boot: boot, client: newClient(clientCount()), engine: engine}
	if r.st, err = boot(); err != nil {
		return nil, err
	}
	defer r.closeStack()
	// Warm-up: each client walks one plugin's history outside any
	// measured window; the measured passes check what the stack returns.
	var wg sync.WaitGroup
	for c := 0; c < clientCount(); c++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			r.history(-1, idx, [historySteps]string{"json", "sarif", "html", "json"})
		}(c)
	}
	wg.Wait()
	return r, nil
}

// closeStack tears the current stack down.
func (r *serviceRunner) closeStack() {
	if r.st != nil {
		r.st.close()
		r.st = nil
	}
}

func (r *serviceRunner) close() {
	r.closeStack()
	r.client.CloseIdleConnections()
}

// The counts the stream fixes per pass: the daemon's (the coordinator's
// in the fleet) and the engines'. In the fleet, which worker runs a scan
// follows heartbeat-driven ring weights, so the engine counts are
// reported but not required to repeat.
var (
	daemonCounts = []string{"journal_appends_total", "scancache_hits_total", "scans_joined_inflight_total"}
	engineCounts = []string{"taint_propagation_iterations_total", "inc_files_reused_total"}
)

// passCounts reads one pass's counts from its windows: the daemon's (or
// coordinator's) and, in the fleet, the workers'.
func passCounts(main *window, workers windows) map[string]int64 {
	engine := workers
	if len(engine) == 0 {
		engine = windows{main}
	}
	c := map[string]int64{}
	for _, name := range daemonCounts {
		c[name] = int64(windows{main}.counter(name))
	}
	for _, name := range engineCounts {
		c[name] = int64(engine.counter(name))
	}
	return c
}

// recorded is what the recorders and the dispatch hook saw over every
// pass of a measured window.
type recorded struct {
	main, workers      windows
	dispatches         int64
	dispatchNS         int64
	dispatchesByWorker map[string]int64 // "w0", "w1": workers in boot order
}

func (r *serviceRunner) measure(d time.Duration) (*phase, error) {
	ph := newPhase()
	rc := &recorded{dispatchesByWorker: map[string]int64{}}
	var perPass []map[string]int64
	for pass := 0; ph.elapsed < d; pass++ {
		st, err := r.boot()
		if err != nil {
			return nil, fmt.Errorf("booting pass %d: %w", pass, err)
		}
		r.st = st
		main := openWindow(st.main)
		var workers windows
		for _, rec := range st.workers {
			workers = append(workers, openWindow(rec))
		}
		start := time.Now()
		ph.ops = append(ph.ops, r.pass(pass)...)
		passTime := time.Since(start)
		ph.elapsed += passTime
		ph.passSeconds = append(ph.passSeconds, passTime.Seconds())
		// A scan's last journal append and attempt timing land after its
		// settle hook fires; drain the stack before reading the recorders.
		st.quiesce()
		main.close()
		for _, w := range workers {
			w.close()
		}
		rc.main = append(rc.main, main)
		rc.workers = append(rc.workers, workers...)
		perPass = append(perPass, passCounts(main, workers))
		if r.fleet {
			calls, ns, split := st.dispatch.read()
			rc.dispatches += calls
			rc.dispatchNS += ns
			for i, url := range st.workerURLs {
				rc.dispatchesByWorker[fmt.Sprintf("w%d", i)] += split[url]
			}
		}
		r.closeStack()
	}
	ph.rssMB = peakRSSMB()
	ph.detail["counts_per_pass"] = perPass
	r.checkCounts(ph, perPass)
	if r.fleet {
		ph.detail["dispatches"] = rc.dispatches
		ph.detail["dispatch_split"] = rc.dispatchesByWorker
	}
	renders := r.verify(ph)
	if r.traced {
		r.layers(ph, rc, renders)
	}
	return ph, nil
}

// pass runs every plugin's history once, the clients taking plugins in
// the pass's seeded order.
func (r *serviceRunner) pass(pass int) []opRecord {
	plan := r.in.historyPlan(pass)
	var next atomic.Int64
	var mu sync.Mutex
	var ops []opRecord
	var wg sync.WaitGroup
	for c := 0; c < clientCount(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan.order) {
					return
				}
				idx := plan.order[i]
				h := r.history(pass, idx, plan.format[idx])
				mu.Lock()
				ops = append(ops, h...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ops
}

// history walks one plugin through its four steps: the 2012 version
// cold, the 2014 version, the 2014 version with one file edited, and the
// same content again.
func (r *serviceRunner) history(pass, idx int, format [historySteps]string) []opRecord {
	ops := make([]opRecord, 0, historySteps)
	var edited *analyzer.Target
	for step := 0; step < historySteps; step++ {
		t := edited
		if step < stepHit {
			t = r.in.stepTarget(pass, idx, step)
			edited = t
		}
		op := r.op(t, step == stepHit, format[step])
		op.step, op.pass, op.plugin, op.lines = step, pass, idx, r.in.stepLines(idx, step)
		ops = append(ops, op)
	}
	return ops
}

// op submits t, waits for the settle hook, and fetches the report in
// format. The op's time runs from the submit to the end of the fetch.
func (r *serviceRunner) op(t *analyzer.Target, wantHit bool, format string) opRecord {
	op := opRecord{format: format}
	body, err := json.Marshal(submissionOf(t))
	if err != nil {
		op.fail = fmt.Sprintf("encoding submission: %v", err)
		return op
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	start := time.Now()
	var env struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	status, data, err := r.do(ctx, http.MethodPost, r.st.url+"/v1/scans", body)
	if err == nil {
		err = json.Unmarshal(data, &env)
	}
	op.submitMS = msSince(start)
	switch {
	case err != nil:
		op.fail = fmt.Sprintf("submit %s: %v", t.Name, err)
		return op
	case wantHit && (status != http.StatusOK || !env.Cached):
		op.fail = fmt.Sprintf("submit %s: HTTP %d cached=%v, want a cache hit", t.Name, status, env.Cached)
		return op
	case !wantHit && status != http.StatusAccepted:
		op.fail = fmt.Sprintf("submit %s: HTTP %d, want 202", t.Name, status)
		return op
	}
	state, err := r.st.board.wait(ctx, env.ID)
	if err != nil || state != "done" {
		op.fail = fmt.Sprintf("scan %s of %s settled %q (%v), want done", env.ID, t.Name, state, err)
		return op
	}
	fetchStart := time.Now()
	status, data, err = r.do(ctx, http.MethodGet, r.st.url+"/v1/scans/"+env.ID+"?format="+format, nil)
	op.fetchMS = msSince(fetchStart)
	op.ms = msSince(start)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("HTTP %d", status)
	}
	if err == nil {
		op.digest, err = reportDigest(format, data)
	}
	if err != nil {
		op.fail = fmt.Sprintf("fetch %s report of %s: %v", format, t.Name, err)
	}
	return op
}

// do performs one request and reads the whole response.
func (r *serviceRunner) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// reportDigest hashes a fetched report: the result object of a JSON scan
// view in compact form, or the SARIF or HTML document as served.
func reportDigest(format string, data []byte) ([sha256.Size]byte, error) {
	if format != "json" {
		return sha256.Sum256(data), nil
	}
	var view struct {
		Status string          `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &view); err != nil {
		return [sha256.Size]byte{}, err
	}
	if view.Status != "done" {
		return [sha256.Size]byte{}, fmt.Errorf("scan view says %q", view.Status)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, view.Result); err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// expected is the in-process engine's answer for one content.
type expected struct {
	res     *analyzer.Result
	digests map[string][sha256.Size]byte
	err     error
}

// renderTimes are the mean times to render a verified result in each
// report format.
type renderTimes struct{ json, sarif, html float64 }

// verify checks every op's report against an in-process engine run on
// the same content, after the measured window so the oracle's work does
// not compete with the service. It also times the three renderers on
// each verified result (only used by traced runs).
func (r *serviceRunner) verify(ph *phase) renderTimes {
	type content struct{ pass, plugin, step int }
	want := map[content]*expected{}
	var keys []content
	for _, op := range ph.ops {
		k := content{op.pass, op.plugin, min(op.step, stepRescan)}
		if _, ok := want[k]; !ok {
			want[k] = &expected{}
			keys = append(keys, k)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clientCount(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(keys) {
					return
				}
				k := keys[i]
				*want[k] = r.expect(r.in.stepTarget(k.pass, k.plugin, k.step))
			}
		}()
	}
	wg.Wait()

	var rt renderTimes
	verified := 0
	for i := range ph.ops {
		op := &ph.ops[i]
		exp := want[content{op.pass, op.plugin, min(op.step, stepRescan)}]
		switch {
		case op.fail != "":
			continue
		case exp.err != nil:
			op.fail = fmt.Sprintf("in-process scan: %v", exp.err)
			continue
		case exp.digests[op.format] != op.digest:
			op.fail = fmt.Sprintf("pass %d plugin %s step %d: %s report differs from the in-process engine's",
				op.pass, r.in.plugins[op.plugin].name, op.step, op.format)
			continue
		}
		if r.traced {
			rt.json += timeMS(func() { json.Marshal(exp.res) })
			rt.sarif += timeMS(func() { report.SARIF(exp.res) })
			rt.html += timeMS(func() { report.HTML(exp.res) })
			verified++
		}
	}
	n := float64(verified)
	return renderTimes{ratio(rt.json, n), ratio(rt.sarif, n), ratio(rt.html, n)}
}

// expect scans t in-process and renders the digests each report format
// must match.
func (r *serviceRunner) expect(t *analyzer.Target) expected {
	res, err := r.engine.AnalyzeContext(context.Background(), t, nil)
	if err != nil {
		return expected{err: err}
	}
	js, err := json.Marshal(res)
	if err != nil {
		return expected{err: err}
	}
	sarif, err := report.SARIF(res)
	if err != nil {
		return expected{err: err}
	}
	return expected{res: res, digests: map[string][sha256.Size]byte{
		"json":  sha256.Sum256(js),
		"sarif": sha256.Sum256(sarif),
		"html":  sha256.Sum256([]byte(report.HTML(res))),
	}}
}

// timeMS times one call in milliseconds.
func timeMS(f func()) float64 {
	start := time.Now()
	f()
	return msSince(start)
}

// checkCounts requires every pass to repeat the first pass's counts: one
// cache hit per history, no joined in-flight scans, the same journal
// appends and (standalone) the same interpreter steps and reused files.
func (r *serviceRunner) checkCounts(ph *phase, perPass []map[string]int64) {
	asserted := append(append([]string(nil), daemonCounts...), engineCounts...)
	if r.fleet {
		asserted = daemonCounts
	}
	for i, c := range perPass {
		if c["scancache_hits_total"] != int64(len(r.in.plugins)) {
			ph.problems = append(ph.problems, fmt.Sprintf("pass %d: %d cache hits, want one per history (%d)",
				i, c["scancache_hits_total"], len(r.in.plugins)))
		}
		if c["scans_joined_inflight_total"] != 0 {
			ph.problems = append(ph.problems, fmt.Sprintf("pass %d: %d submissions joined an in-flight scan",
				i, c["scans_joined_inflight_total"]))
		}
		for _, name := range asserted {
			if c[name] != perPass[0][name] {
				ph.problems = append(ph.problems, fmt.Sprintf("pass %d: %s = %d, pass 0 had %d",
					i, name, c[name], perPass[0][name]))
			}
		}
	}
}

// layers fills a traced phase's per-layer rows from the passes' span
// trees and counters and the client-side timings.
func (r *serviceRunner) layers(ph *phase, rc *recorded, rt renderTimes) {
	m := ph.layers
	main, engineWs := rc.main, rc.main
	if r.fleet {
		engineWs = rc.workers
	}
	tot := engineWs.totals()
	engineLayers(m, tot, engineWs)
	all := tot
	if r.fleet {
		coordinator := main.totals()
		all.spans += coordinator.spans
		all.unended += coordinator.unended
	}
	ph.checkSpans(all, append(append(windows{}, main...), rc.workers...))

	ops := float64(len(ph.ops))
	var submit, fetch float64
	for _, op := range ph.ops {
		submit += op.submitMS
		fetch += op.fetchMS
	}
	m["server.submit_ms"] = ratio(submit, ops)
	m["server.fetch_ms"] = ratio(fetch, ops)
	m["report.json_ms"], m["report.sarif_ms"], m["report.html_ms"] = rt.json, rt.sarif, rt.html

	m["jobs.queue_wait_ms"] = main.histMeanMS("scan_queue_wait_seconds")
	m["jobs.run_ms"] = main.histMeanMS("jobs_run_seconds")
	hits, misses := main.counter("scancache_hits_total"), main.counter("scancache_misses_total")
	m["scancache.hit_ratio"] = ratio(hits, hits+misses)
	hitMS := ph.latencies(func(s int) bool { return s == stepHit })
	rescanMS := ph.latencies(func(s int) bool { return s == stepRescan })
	ph.detail["p50_samples"] = map[string]int{"scancache.hit_p50_ms": len(hitMS), "incremental.rescan_p50_ms": len(rescanMS)}
	m["scancache.hit_p50_ms"] = percentile(hitMS, 0.5)

	reused, analyzed := engineWs.counter("inc_files_reused_total"), engineWs.counter("inc_files_analyzed_total")
	m["incremental.reuse_ratio"] = ratio(reused, reused+analyzed)
	m["incremental.overhead_ms"] = ratio(float64(tot.serverNS-tot.engineNS)/1e6, float64(tot.serverScans))
	m["incremental.rescan_p50_ms"] = percentile(rescanMS, 0.5)

	m["durable.appends_per_op"] = ratio(main.counter("journal_appends_total"), ops)
	m["durable.fsyncs_per_op"] = ratio(main.counter("journal_fsyncs_total"), ops)
	m["durable.compactions_per_kop"] = ratio(1000*main.counter("journal_compactions_total"), ops)
	attemptNS, attempts := main.hist("scan_attempt_seconds")
	scanNS, _ := main.hist("scan_seconds")
	m["durable.settle_ms"] = ratio((attemptNS-scanNS)/1e6, float64(attempts))

	if r.fleet {
		calls, dispatchNS := float64(rc.dispatches), float64(rc.dispatchNS)
		workerWaitNS, _ := engineWs.hist("scan_queue_wait_seconds")
		m["fleet.dispatch_ms"] = ratio(dispatchNS/1e6, calls)
		m["fleet.worker_queue_wait_ms"] = engineWs.histMeanMS("scan_queue_wait_seconds")
		m["fleet.wire_ms"] = ratio((dispatchNS-float64(tot.serverNS)-workerWaitNS)/1e6, calls)
	}
	ph.detail["engine_scans"] = tot.engineScans
}
