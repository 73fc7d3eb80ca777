package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/durable"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// profileAnalyzer behaves as its submission's profile says: "fail"
// fails every attempt, "block" signals started and parks on the scan
// context until it is cancelled, "failblock" and "flaky" fail the
// first attempt of their engine and then block like "block" or finish,
// and anything else finishes at once. A failed or cancelled attempt
// returns a partial result, as the engines do.
type profileAnalyzer struct {
	profile string
	started chan<- struct{}
	calls   *atomic.Int32
}

func (a profileAnalyzer) Name() string { return "profiled" }

func (a profileAnalyzer) AnalyzeContext(ctx context.Context, tg *analyzer.Target, _ *analyzer.ScanOptions) (*analyzer.Result, error) {
	partial := &analyzer.Result{Tool: a.Name(), Target: tg.Name}
	switch calls := a.calls.Add(1); {
	case a.profile == "fail", calls == 1 && (a.profile == "failblock" || a.profile == "flaky"):
		return partial, fmt.Errorf("engine exploded")
	case a.profile == "block", a.profile == "failblock":
		a.started <- struct{}{}
		<-ctx.Done()
		return partial, fmt.Errorf("scan cancelled: %w", ctx.Err())
	}
	return &analyzer.Result{Tool: a.Name(), Target: tg.Name, Findings: []analyzer.Finding{}}, nil
}

// withProfiles substitutes profileAnalyzer; started receives one value
// each time a blocking attempt is running.
func withProfiles(started chan<- struct{}) func(*Config) {
	return func(cfg *Config) {
		cfg.BuildTool = func(_, profile string, _ *obs.Recorder) (analyzer.Analyzer, error) {
			return profileAnalyzer{profile: profile, started: started, calls: new(atomic.Int32)}, nil
		}
		cfg.Retry = jobs.RetryPolicy{MaxAttempts: 1}
	}
}

// profiled is a submission body naming its script by profile; distinct
// names give distinct content, so no two submissions share a cache key.
func profiled(name, profile string) string {
	b, _ := json.Marshal(map[string]any{
		"name": name, "profile": profile,
		"files": map[string]string{name + ".php": "<?php // " + name},
	})
	return string(b)
}

// post sends an empty POST and returns the status.
func (e *env) post(t *testing.T, path string) int {
	t.Helper()
	resp, err := http.Post(e.ts.URL+path, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// submitSettled submits body and waits for the scan's settled event.
func (e *env) submitSettled(t *testing.T, body string) string {
	t.Helper()
	_, sc := e.submitJSON(t, body)
	waitScanEvent(t, e.rec, sc.ID, evSettled)
	return sc.ID
}

// lifecycleCounters are the server's lifecycle counters the table below
// drives; each row asserts every one of them.
var lifecycleCounters = []string{
	"scans_accepted_total", "scans_served_from_cache_total",
	"scans_completed_total", "scans_cancelled_total", "scans_quarantined_total",
	"scans_cancel_requests_total", "scans_retry_requests_total",
	"traces_served_total", "diffs_served_total", "server_drains_total",
}

// TestLifecycleCountersMove drives one transition per row and asserts
// the exact delta of every lifecycle counter: the named ones move by
// the given amount and the rest stay put.
func TestLifecycleCountersMove(t *testing.T) {
	t.Parallel()
	rows := []struct {
		name  string
		setup func(t *testing.T, e *env, started chan struct{}) []string
		drive func(t *testing.T, e *env, ids []string)
		want  map[string]int64
	}{{
		name: "completed",
		drive: func(t *testing.T, e *env, _ []string) {
			e.submitSettled(t, profiled("done", "ok"))
		},
		want: map[string]int64{"scans_accepted_total": 1, "scans_completed_total": 1},
	}, {
		name: "served from cache",
		setup: func(t *testing.T, e *env, _ chan struct{}) []string {
			return []string{e.submitSettled(t, profiled("again", "ok"))}
		},
		drive: func(t *testing.T, e *env, _ []string) {
			e.submitSettled(t, profiled("again", "ok"))
		},
		want: map[string]int64{"scans_served_from_cache_total": 1},
	}, {
		name: "cancelled",
		setup: func(t *testing.T, e *env, started chan struct{}) []string {
			_, sc := e.submitJSON(t, profiled("victim", "block"))
			<-started
			return []string{sc.ID}
		},
		drive: func(t *testing.T, e *env, ids []string) {
			if code := e.post(t, "/v1/scans/"+ids[0]+"/cancel"); code != http.StatusAccepted {
				t.Fatalf("cancel = %d, want 202", code)
			}
			waitScanEvent(t, e.rec, ids[0], evSettled)
		},
		want: map[string]int64{"scans_cancel_requests_total": 1, "scans_cancelled_total": 1},
	}, {
		name: "quarantined",
		drive: func(t *testing.T, e *env, _ []string) {
			e.submitSettled(t, profiled("poison", "fail"))
		},
		want: map[string]int64{"scans_accepted_total": 1, "scans_quarantined_total": 1},
	}, {
		name: "retry requested",
		setup: func(t *testing.T, e *env, _ chan struct{}) []string {
			return []string{e.submitSettled(t, profiled("poison", "fail"))}
		},
		drive: func(t *testing.T, e *env, ids []string) {
			settles := len(e.rec.Events().ForScan(ids[0]))
			if code := e.post(t, "/v1/scans/"+ids[0]+"/retry"); code != http.StatusAccepted {
				t.Fatalf("retry = %d, want 202", code)
			}
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
				evs := e.rec.Events().ForScan(ids[0])
				if len(evs) > settles && evs[len(evs)-1].Type == evSettled {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("retried scan never settled again: %+v", evs)
				}
			}
		},
		want: map[string]int64{"scans_retry_requests_total": 1, "scans_quarantined_total": 1},
	}, {
		name: "trace served",
		setup: func(t *testing.T, e *env, _ chan struct{}) []string {
			return []string{e.submitSettled(t, profiled("traced", "ok"))}
		},
		drive: func(t *testing.T, e *env, ids []string) { getTraceRaw(t, e, ids[0]) },
		want:  map[string]int64{"traces_served_total": 1},
	}, {
		name: "diff served",
		setup: func(t *testing.T, e *env, _ chan struct{}) []string {
			return []string{e.submitSettled(t, profiled("v1", "ok")), e.submitSettled(t, profiled("v2", "ok"))}
		},
		drive: func(t *testing.T, e *env, ids []string) {
			if code := e.getJSON(t, "/v1/diffs?from="+ids[0]+"&to="+ids[1], nil); code != http.StatusOK {
				t.Fatalf("diff = %d, want 200", code)
			}
		},
		want: map[string]int64{"diffs_served_total": 1},
	}, {
		name:  "drain",
		drive: func(t *testing.T, e *env, _ []string) { e.srv.StartDrain() },
		want:  map[string]int64{"server_drains_total": 1},
	}}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			started := make(chan struct{}, 1)
			e := newEnv(t, 1, 4, withProfiles(started))
			var ids []string
			if row.setup != nil {
				ids = row.setup(t, e, started)
			}
			before := e.rec.Snapshot().Counters
			row.drive(t, e, ids)
			delta := func() map[string]int64 {
				after := e.rec.Snapshot().Counters
				d := map[string]int64{}
				for _, name := range lifecycleCounters {
					if n := after[name] - before[name]; n != 0 {
						d[name] = n
					}
				}
				return d
			}
			// A settle's counter may land just after its event: poll.
			got := delta()
			for deadline := time.Now().Add(5 * time.Second); fmt.Sprint(got) != fmt.Sprint(row.want) && time.Now().Before(deadline); {
				time.Sleep(2 * time.Millisecond)
				got = delta()
			}
			if fmt.Sprint(got) != fmt.Sprint(row.want) {
				t.Errorf("counter deltas = %v, want %v", got, row.want)
			}
		})
	}
}

// foldJournal folds a journal directory's snapshot and WAL as replay
// would, and returns scan id's state.
func foldJournal(t *testing.T, dir, id string) *durable.JobState {
	t.Helper()
	recs := append(journalLines(t, filepath.Join(dir, "snapshot.jsonl")), journalLines(t, filepath.Join(dir, "wal.jsonl"))...)
	for _, st := range durable.Fold(recs) {
		if st.ScanID == id {
			return st
		}
	}
	t.Fatalf("journal holds no scan %s", id)
	return nil
}

// TestCompactionKeepsAttemptBudget: compacting the journal while a scan
// runs must not change what the journal folds to for it — neither the
// failed attempts a restart resumes from nor the phase — whether the
// scan is in its first attempt or in a retry.
func TestCompactionKeepsAttemptBudget(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		profile  string
		attempts int
	}{{"block", 0}, {"failblock", 1}} {
		t.Run(tc.profile, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			started := make(chan struct{}, 1)
			e := newJournalEnv(t, dir, withProfiles(started), func(cfg *Config) {
				cfg.Retry = jobs.RetryPolicy{MaxAttempts: 3, Base: time.Millisecond, Cap: time.Millisecond}
			})
			_, sc := e.submitJSON(t, profiled("running", tc.profile))
			<-started
			t.Cleanup(func() { e.post(t, "/v1/scans/"+sc.ID+"/cancel") })

			before := foldJournal(t, dir, sc.ID)
			if before.Attempts != tc.attempts || before.Phase != durable.RecStarted {
				t.Fatalf("journal folds to %d failed attempts, phase %s; want %d, started", before.Attempts, before.Phase, tc.attempts)
			}
			e.srv.CompactJournal()
			after := foldJournal(t, dir, sc.ID)
			if after.Attempts != before.Attempts || after.Phase != before.Phase {
				t.Errorf("after compaction the journal folds to %d failed attempts, phase %s; before it, %d, %s",
					after.Attempts, after.Phase, before.Attempts, before.Phase)
			}
		})
	}
}

// TestRefusedRetryRacingCompactionStaysQuarantined: a retry the full
// queue refuses must leave a quarantined scan settled in the journal
// even when a compaction runs while the retry is in progress, so a
// restart neither loses its result nor re-runs the poison scan.
func TestRefusedRetryRacingCompactionStaysQuarantined(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	started := make(chan struct{}, 1)
	e := newEnv(t, 1, 1, withProfiles(started), func(cfg *Config) {
		j, _, err := durable.Open(dir, durable.Options{Recorder: cfg.Recorder})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Journal = j
	})
	poison := e.submitSettled(t, profiled("poison", "fail"))
	// Fill the pool: one scan on the worker, one in the queue.
	_, running := e.submitJSON(t, profiled("runner", "block"))
	<-started
	if status, _ := e.submitJSON(t, profiled("waiter", "ok")); status != http.StatusAccepted {
		t.Fatalf("filling submit = %d, want 202", status)
	}

	// With the journal lock held, park a compaction on it first and the
	// retry second, so the compaction runs while the retry is in
	// progress.
	e.srv.journalMu.Lock()
	compacted := make(chan struct{})
	go func() { e.srv.CompactJournal(); close(compacted) }()
	time.Sleep(50 * time.Millisecond)
	retried := make(chan int)
	go func() {
		resp, err := http.Post(e.ts.URL+"/v1/scans/"+poison+"/retry", "application/json", nil)
		if err != nil {
			retried <- 0
			return
		}
		resp.Body.Close()
		retried <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond)
	e.srv.journalMu.Unlock()
	if code := <-retried; code != http.StatusTooManyRequests {
		t.Fatalf("retry against a full queue = %d, want 429", code)
	}
	<-compacted

	if st := foldJournal(t, dir, poison); !st.Settled() || st.Phase != durable.RecQuarantined {
		t.Errorf("journal folds the refused retry's scan to phase %s (settled %v), want quarantined", st.Phase, st.Settled())
	}
	if code := e.post(t, "/v1/scans/"+running.ID+"/cancel"); code != http.StatusAccepted {
		t.Fatalf("cancel = %d", code)
	}
	e.crash(t)

	e2 := newJournalEnv(t, dir, withProfiles(make(chan struct{}, 1)))
	var got scanJSON
	if code := e2.getJSON(t, "/v1/scans/"+poison, &got); code != http.StatusOK {
		t.Fatalf("GET after replay = %d", code)
	}
	if got.Status != stateQuarantined || got.Error == "" || got.Result == nil {
		t.Errorf("replayed scan = %s (%q, result %v), want quarantined with its error and result", got.Status, got.Error, got.Result)
	}
	if n := e2.counter("scans_replayed_total"); n != 0 {
		t.Errorf("replay resubmitted %d scans, want 0", n)
	}
}

// journal appends one lifecycle record outside any transition.
func (s *Server) journal(r durable.Record) {
	s.journalMu.Lock()
	defer s.journalMu.Unlock()
	s.journalLocked(r)
}

// scanRecords waits until the WAL in dir holds scan id's final record
// and returns the scan's records, blobs aside.
func scanRecords(t *testing.T, dir, id string) []durable.Record {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		var recs []durable.Record
		for _, r := range journalLines(t, filepath.Join(dir, "wal.jsonl")) {
			if r.ScanID == id {
				recs = append(recs, r)
			}
		}
		if n := len(recs); n > 0 && (recs[n-1].Type == durable.RecCompleted || recs[n-1].Type == durable.RecQuarantined) {
			return recs
		}
		if time.Now().After(deadline) {
			t.Fatalf("scan %s has no final record; journaled %+v", id, recs)
		}
	}
}

// timelineKey is what a record fixes about its event.
func timelineKey(e obs.Event) string {
	return fmt.Sprintf("%s attempt=%d err=%q detail=%q", e.Type, e.Attempt, e.Err, e.Detail)
}

// recordEvents lists the scan's events of the types a record maps to.
func recordEvents(rec *obs.Recorder, id string) []string {
	var keys []string
	for _, e := range rec.Events().ForScan(id) {
		switch e.Type {
		case evAccepted, evAttemptStarted, evAttemptFailed, evSettled:
			keys = append(keys, timelineKey(e))
		}
	}
	return keys
}

// TestLiveAndReplayedTimelinesShareMapping: for each lifecycle shape,
// the journaled records mapped through eventFor are, in order, the live
// timeline's events of the record-derived types, and after a restart
// the rehydrated timeline is the same events of the accepted and final
// records (the journal_replayed marker aside).
func TestLiveAndReplayedTimelinesShareMapping(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	started := make(chan struct{}, 1)
	retry := func(cfg *Config) {
		cfg.Retry = jobs.RetryPolicy{MaxAttempts: 2, Base: time.Millisecond, Cap: time.Millisecond}
	}
	e := newJournalEnv(t, dir, withProfiles(started), retry)
	ids := map[string]string{}
	for _, shape := range []struct {
		name, profile string
		state         scanState
	}{
		{"normal", "ok", stateDone},
		{"retried", "flaky", stateDone},
		{"cancelled", "block", stateCancelled},
		{"quarantined", "fail", stateQuarantined},
	} {
		_, sc := e.submitJSON(t, profiled(shape.name, shape.profile))
		if shape.state == stateCancelled {
			<-started
			if code := e.post(t, "/v1/scans/"+sc.ID+"/cancel"); code != http.StatusAccepted {
				t.Fatalf("cancel = %d", code)
			}
		}
		if got := e.wait(t, sc.ID).Status; got != shape.state {
			t.Fatalf("%s scan settled %s, want %s", shape.name, got, shape.state)
		}
		ids[shape.name] = sc.ID
	}

	want := map[string][]string{}
	for shape, id := range ids {
		var view scanJSON
		e.getJSON(t, "/v1/scans/"+id, &view)
		var mapped []string
		for _, r := range scanRecords(t, dir, id) {
			detail := "" // what the record does not carry, as the server fills it in
			switch r.Type {
			case durable.RecAccepted:
				detail = shape
			case durable.RecCompleted, durable.RecQuarantined:
				detail = string(view.Status)
			}
			mapped = append(mapped, timelineKey(eventFor(r, detail)))
		}
		if live := recordEvents(e.rec, id); fmt.Sprint(live) != fmt.Sprint(mapped) {
			t.Errorf("%s: live timeline %v, journal maps to %v", shape, live, mapped)
		}
		want[shape] = []string{mapped[0], mapped[len(mapped)-1]}
	}
	e.crash(t)

	e2 := newJournalEnv(t, dir, withProfiles(started), retry)
	for shape, id := range ids {
		var replayed []string
		for _, ev := range e2.rec.Events().ForScan(id) {
			if ev.Type != evReplayed {
				replayed = append(replayed, timelineKey(ev))
			}
		}
		if fmt.Sprint(replayed) != fmt.Sprint(want[shape]) {
			t.Errorf("%s: rehydrated timeline %v, want %v", shape, replayed, want[shape])
		}
	}
}
