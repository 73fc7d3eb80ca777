package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/durable"
	"repro/internal/govern"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// newJournalEnv starts a test daemon journaling into dir, replaying
// whatever the journal already holds before serving traffic — the
// daemon's restart sequence, in-process. The journal shares the
// daemon's recorder, as in phpsafed.
func newJournalEnv(t *testing.T, dir string, mutate ...func(*Config)) *env {
	t.Helper()
	var records []durable.Record
	e := newEnv(t, 1, 16, append([]func(*Config){func(cfg *Config) {
		j, recs, err := durable.Open(dir, durable.Options{Recorder: cfg.Recorder})
		if err != nil {
			t.Fatalf("opening journal: %v", err)
		}
		t.Cleanup(func() { j.Close() })
		cfg.Journal, records = j, recs
	}}, mutate...)...)
	e.srv.Replay(records)
	return e
}

// crash stops a journal env the hard way for in-process restart tests:
// the HTTP listener closes, the pool drains (workers finish their
// current job, including its journal append) and the journal closes,
// leaving the on-disk state exactly as a later Open will find it.
func (e *env) crash(t *testing.T) {
	t.Helper()
	e.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.pool.Shutdown(ctx); err != nil {
		t.Fatalf("draining pool: %v", err)
	}
	if err := e.srv.cfg.Journal.Close(); err != nil {
		t.Fatalf("closing journal: %v", err)
	}
}

// getJSON GETs path and decodes the body into v, returning the status.
func (e *env) getJSON(t *testing.T, path string, v any) int {
	t.Helper()
	resp, err := http.Get(e.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestReplayRehydratesFinishedScanByteIdentically(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()

	e1 := newJournalEnv(t, dir)
	_, sc := e1.submitJSON(t, submission("durableplugin"))
	done := e1.wait(t, sc.ID)
	if done.Status != stateDone || done.Result == nil || len(done.Result.Findings) == 0 {
		t.Fatalf("pre-crash scan = %+v, want done with findings", done)
	}
	want, err := json.Marshal(done.Result)
	if err != nil {
		t.Fatal(err)
	}
	e1.crash(t)

	e2 := newJournalEnv(t, dir)
	// The pre-crash scan id answers from the rebuilt registry.
	var replayed scanJSON
	if code := e2.getJSON(t, "/v1/scans/"+sc.ID, &replayed); code != http.StatusOK {
		t.Fatalf("GET replayed scan = %d, want 200", code)
	}
	if replayed.Status != stateDone {
		t.Fatalf("replayed status = %s, want done", replayed.Status)
	}
	got, err := json.Marshal(replayed.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("replayed result differs from pre-crash result:\npre:  %s\npost: %s", want, got)
	}
	// The cache was re-seeded from the journal: resubmitting the same
	// content is served from cache, not re-analyzed.
	code, resub := e2.submitJSON(t, submission("durableplugin"))
	if code != http.StatusOK || !resub.Cached {
		t.Errorf("resubmission after replay: code=%d cached=%v, want 200 from cache", code, resub.Cached)
	}
	resubBytes, _ := json.Marshal(resub.Result)
	if string(resubBytes) != string(want) {
		t.Errorf("resubmitted result differs from pre-crash result")
	}
}

func TestReplayResubmitsUnsettledScanAndResumesBudget(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()

	// Handcraft the journal a crashed daemon would leave behind: an
	// accepted scan whose first attempt failed with no settlement.
	j, _, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := json.Marshal(submissionPayload{
		Name: "interrupted", Tool: "phpsafe", Profile: "wordpress",
		Key: "replay-test-key", Created: time.Now(),
		Files: []durable.FileRef{{Path: "interrupted.php", Content: []byte(vulnerablePHP)}},
	})
	const id = "replayscan001"
	for _, r := range []durable.Record{
		{Type: durable.RecAccepted, ScanID: id, Payload: payload},
		{Type: durable.RecStarted, ScanID: id, Attempt: 1},
		{Type: durable.RecAttemptFailed, ScanID: id, Attempt: 1, Error: "simulated crash", BackoffMS: 1},
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	e := newJournalEnv(t, dir)
	done := e.wait(t, id)
	if done.Status != stateDone || done.Result == nil || len(done.Result.Findings) == 0 {
		t.Fatalf("replayed scan = %+v, want done with findings", done)
	}
	// The journaled failed attempt counts against the budget: this
	// execution was attempt 2.
	if done.Attempts != 2 {
		t.Errorf("attempts after replay = %d, want 2 (1 journaled + 1 live)", done.Attempts)
	}
	if got := e.rec.Snapshot().Counters["scans_replayed_total"]; got != 1 {
		t.Errorf("scans_replayed_total = %d, want 1", got)
	}
}

// TestJournalPreservesNonUTF8Source covers the zip path: archive
// members may be arbitrary bytes, and the journal must replay them
// exactly — a JSON string payload would mangle invalid UTF-8 into
// U+FFFD and re-run the scan on corrupted source.
func TestJournalPreservesNonUTF8Source(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	raw := "<?php $x = $_GET['a']; echo $x; // \xff\xfe\x80 latin1 comment"

	j, _, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(submissionPayload{
		Name: "binary", Tool: "phpsafe", Profile: "wordpress",
		Key: "bin-key", Created: time.Now(),
		Files: []durable.FileRef{{Path: "bin.php", Content: []byte(raw)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const id = "binscan00001"
	if err := j.Append(durable.Record{Type: durable.RecAccepted, ScanID: id, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	e := newJournalEnv(t, dir)
	done := e.wait(t, id)
	if done.Status != stateDone {
		t.Fatalf("replayed binary scan = %+v, want done", done)
	}
	e.srv.mu.Lock()
	got := e.srv.scans[id].Target.Files[0].Content
	e.srv.mu.Unlock()
	if got != raw {
		t.Errorf("replayed source = %q, want the original bytes %q", got, raw)
	}
	// And a freshly journaled acceptance round-trips the same bytes:
	// the payload names the file by address, its blob holds the bytes.
	blobs, rec := e.srv.acceptedRecord(&scan{ID: "x", Target: &analyzer.Target{
		Name: "x", Files: []analyzer.SourceFile{{Path: "x.php", Content: raw}},
	}}, nil)
	var sub submissionPayload
	if err := json.Unmarshal(rec.Payload, &sub); err != nil {
		t.Fatal(err)
	}
	files, err := durable.IndexBlobs(blobs).Files(sub.Files)
	if err != nil {
		t.Fatal(err)
	}
	if files[0].Content != raw {
		t.Errorf("journaled payload = %q, want %q", files[0].Content, raw)
	}
}

// TestShutdownInterruptedScanReplaysAfterRestart pins the drain-deadline
// path: a scan cancelled because shutdown blew its deadline must not be
// journaled as terminally cancelled — after restart the journal still
// owes it an execution.
func TestShutdownInterruptedScanReplaysAfterRestart(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	started := make(chan struct{}, 1)
	e1 := newJournalEnv(t, dir, func(cfg *Config) {
		cfg.BuildTool = func(_, _ string, _ *obs.Recorder) (analyzer.Analyzer, error) {
			return ctxAnalyzer{started: started}, nil
		}
	})
	_, sc := e1.submitJSON(t, submission("interrupted-by-drain"))
	<-started // the worker is provably inside the scan

	// A drain whose deadline has already expired: Shutdown cancels the
	// pool's base context, aborting the in-flight attempt.
	e1.ts.Close()
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e1.pool.Shutdown(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("deadline-blown shutdown = %v, want context.Canceled", err)
	}
	// Shutdown returned before the worker observed the cancellation;
	// a second (idempotent) call waits for the workers to finish.
	ctx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := e1.pool.Shutdown(ctx); err != nil {
		t.Fatalf("draining workers: %v", err)
	}
	if got := e1.rec.Snapshot().Counters["scans_interrupted_total"]; got != 1 {
		t.Errorf("scans_interrupted_total = %d, want 1", got)
	}
	if err := e1.srv.cfg.Journal.Close(); err != nil {
		t.Fatalf("closing journal: %v", err)
	}

	// Restart with a working engine: replay resubmits the interrupted
	// scan and it completes.
	e2 := newJournalEnv(t, dir)
	done := e2.wait(t, sc.ID)
	if done.Status != stateDone || done.Result == nil {
		t.Fatalf("replayed interrupted scan = %+v, want done (was it journaled as cancelled?)", done)
	}
	if got := e2.rec.Snapshot().Counters["scans_replayed_total"]; got != 1 {
		t.Errorf("scans_replayed_total = %d, want 1", got)
	}
}

// healingAnalyzer fails every scan until healed, then finds nothing.
type healingAnalyzer struct{ healed *atomic.Bool }

func (h healingAnalyzer) Name() string { return "healing" }
func (h healingAnalyzer) AnalyzeContext(ctx context.Context, tg *analyzer.Target, opts *analyzer.ScanOptions) (*analyzer.Result, error) {
	if !h.healed.Load() {
		return nil, fmt.Errorf("transient backend failure")
	}
	return &analyzer.Result{Tool: "healing", Target: tg.Name, Findings: []analyzer.Finding{}}, nil
}

func TestQuarantineListingAndManualRetry(t *testing.T) {
	t.Parallel()
	healed := &atomic.Bool{}
	e := newEnv(t, 1, 4, func(cfg *Config) {
		cfg.BuildTool = func(_, _ string, _ *obs.Recorder) (analyzer.Analyzer, error) {
			return healingAnalyzer{healed: healed}, nil
		}
		cfg.Retry = jobs.RetryPolicy{MaxAttempts: 2, Base: 2 * time.Millisecond, Cap: 5 * time.Millisecond}
	})

	_, sc := e.submitJSON(t, submission("flaky"))
	done := e.wait(t, sc.ID)
	if done.Status != stateQuarantined {
		t.Fatalf("scan = %+v, want quarantined", done)
	}

	var list struct {
		Count       int        `json:"count"`
		Quarantined []scanJSON `json:"quarantined"`
	}
	if code := e.getJSON(t, "/v1/quarantine", &list); code != http.StatusOK {
		t.Fatalf("GET /v1/quarantine = %d", code)
	}
	if list.Count != 1 || len(list.Quarantined) != 1 || list.Quarantined[0].ID != sc.ID {
		t.Fatalf("quarantine list = %+v, want exactly scan %s", list, sc.ID)
	}

	// Retrying a non-quarantined scan conflicts.
	resp, err := http.Post(e.ts.URL+"/v1/scans/nosuchscan/retry", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("retry of unknown scan = %d, want 404", resp.StatusCode)
	}

	// Heal the backend and retry: the scan completes with a reset
	// attempt budget.
	healed.Store(true)
	resp, err = http.Post(e.ts.URL+"/v1/scans/"+sc.ID+"/retry", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var retried scanJSON
	if err := json.NewDecoder(resp.Body).Decode(&retried); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("retry = %d, want 202", resp.StatusCode)
	}
	done = e.wait(t, sc.ID)
	if done.Status != stateDone {
		t.Fatalf("retried scan = %+v, want done", done)
	}
	if done.Attempts != 1 {
		t.Errorf("retried attempts = %d, want 1 (budget reset)", done.Attempts)
	}
	if code := e.getJSON(t, "/v1/quarantine", &list); code != http.StatusOK || list.Count != 0 {
		t.Errorf("quarantine after retry: code=%d count=%d, want empty", code, list.Count)
	}
	// A second retry of the now-finished scan conflicts.
	resp, err = http.Post(e.ts.URL+"/v1/scans/"+sc.ID+"/retry", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("retry of finished scan = %d, want 409", resp.StatusCode)
	}
}

func TestRegistryBoundEvictsOldestFinished(t *testing.T) {
	t.Parallel()
	e := newEnv(t, 1, 8, func(cfg *Config) {
		cfg.MaxScans = 2
	})
	var ids []string
	for i := 0; i < 3; i++ {
		_, sc := e.submitJSON(t, submission(fmt.Sprintf("plugin%d", i)))
		done := e.wait(t, sc.ID)
		if done.Status != stateDone {
			t.Fatalf("scan %d = %+v", i, done)
		}
		ids = append(ids, sc.ID)
	}
	// The oldest finished scan was evicted to hold the bound.
	if code := e.getJSON(t, "/v1/scans/"+ids[0], nil); code != http.StatusNotFound {
		t.Errorf("GET evicted scan = %d, want 404", code)
	}
	if code := e.getJSON(t, "/v1/scans/"+ids[2], nil); code != http.StatusOK {
		t.Errorf("GET newest scan = %d, want 200", code)
	}
	var health struct {
		Scans int `json:"scans"`
	}
	e.getJSON(t, "/healthz", &health)
	if health.Scans > 2 {
		t.Errorf("tracked scans = %d, want <= 2", health.Scans)
	}
	if got := e.rec.Snapshot().Counters["scans_evicted_total"]; got != 1 {
		t.Errorf("scans_evicted_total = %d, want 1", got)
	}
}

func TestScanTTLEvictsStaleFinishedScans(t *testing.T) {
	t.Parallel()
	e := newEnv(t, 1, 8, func(cfg *Config) {
		cfg.ScanTTL = 10 * time.Millisecond
	})
	_, first := e.submitJSON(t, submission("ttl-old"))
	if done := e.wait(t, first.ID); done.Status != stateDone {
		t.Fatalf("first scan = %+v", done)
	}
	time.Sleep(25 * time.Millisecond)
	// The next insertion sweeps expired scans.
	_, second := e.submitJSON(t, submission("ttl-new"))
	e.wait(t, second.ID)
	if code := e.getJSON(t, "/v1/scans/"+first.ID, nil); code != http.StatusNotFound {
		t.Errorf("GET expired scan = %d, want 404", code)
	}
}

func TestLivezReadyzAndDrain(t *testing.T) {
	t.Parallel()
	e := newEnv(t, 1, 4)
	var live map[string]string
	if code := e.getJSON(t, "/livez", &live); code != http.StatusOK || live["status"] != "ok" {
		t.Errorf("livez = %d %v, want 200 ok", code, live)
	}
	var body map[string]any
	if code := e.getJSON(t, "/readyz", &body); code != http.StatusOK || body["status"] != "ready" {
		t.Errorf("readyz = %d %v, want 200 ready", code, body)
	}
	// Readiness carries live queue occupancy so saturation is visible
	// before it turns into 429s.
	for _, field := range []string{"queue_depth", "queue_capacity", "inflight_workers", "retry_backlog", "workers"} {
		if _, ok := body[field]; !ok {
			t.Errorf("readyz body missing %q: %v", field, body)
		}
	}
	if got := body["queue_capacity"]; got != float64(4) {
		t.Errorf("readyz queue_capacity = %v, want 4", got)
	}
	e.srv.StartDrain()
	if code := e.getJSON(t, "/readyz", &body); code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Errorf("readyz while draining = %d %v, want 503 draining", code, body)
	}
	// Liveness is unaffected by draining.
	if code := e.getJSON(t, "/livez", &live); code != http.StatusOK {
		t.Errorf("livez while draining = %d, want 200", code)
	}
}

// Not parallel: installs the global I/O fault hook.
func TestJournalDiskFailureDegradesButKeepsScanning(t *testing.T) {
	dir := t.TempDir()
	e := newJournalEnv(t, dir)

	var body map[string]any
	if code := e.getJSON(t, "/readyz", &body); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz before fault = %d %v", code, body)
	}

	govern.IOFaultHookForTesting = func(op, path string) error {
		if strings.Contains(path, dir) {
			return errors.New("injected disk failure")
		}
		return nil
	}
	defer func() { govern.IOFaultHookForTesting = nil }()

	// Scans still complete while the journal is unwritable.
	_, sc := e.submitJSON(t, submission("degradedplugin"))
	done := e.wait(t, sc.ID)
	if done.Status != stateDone || done.Result == nil {
		t.Fatalf("scan under journal failure = %+v, want done", done)
	}

	var health struct {
		Status  string `json:"status"`
		Journal struct {
			Enabled  bool `json:"enabled"`
			Degraded bool `json:"degraded"`
		} `json:"journal"`
	}
	if code := e.getJSON(t, "/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if health.Status != "degraded" || !health.Journal.Degraded || !health.Journal.Enabled {
		t.Errorf("healthz under journal failure = %+v, want degraded", health)
	}
	// Degraded is not draining: readiness stays 200 so the daemon keeps
	// serving, with the status telling operators durability is gone.
	if code := e.getJSON(t, "/readyz", &body); code != http.StatusOK || body["status"] != "degraded" {
		t.Errorf("readyz under journal failure = %d %v, want 200 degraded", code, body)
	}
}

func TestCompactionKeepsRegistryReplayable(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	e1 := newJournalEnv(t, dir)
	_, sc := e1.submitJSON(t, submission("compacted"))
	done := e1.wait(t, sc.ID)
	if done.Status != stateDone {
		t.Fatalf("scan = %+v", done)
	}
	before := e1.srv.cfg.Journal.Usage().WALBytes
	e1.srv.CompactJournal()
	if after := e1.srv.cfg.Journal.Usage().WALBytes; after >= before {
		t.Errorf("WAL bytes after compaction = %d, want < %d", after, before)
	}
	e1.crash(t)

	e2 := newJournalEnv(t, dir)
	var replayed scanJSON
	if code := e2.getJSON(t, "/v1/scans/"+sc.ID, &replayed); code != http.StatusOK {
		t.Fatalf("GET after compacted replay = %d, want 200", code)
	}
	if replayed.Status != stateDone || replayed.Result == nil {
		t.Errorf("compacted replay = %+v, want done with result", replayed)
	}
}
