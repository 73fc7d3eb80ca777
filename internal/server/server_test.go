package server

import (
	"archive/zip"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/incremental"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/scancache"
)

// vulnerablePHP trips the phpSAFE engine deterministically: a direct
// reflected XSS and a concatenated SQL injection.
const vulnerablePHP = `<?php
$path = $_GET['img_path'];
echo 'Created ' . $path . '.';
$user = $_POST['user'];
mysql_query("SELECT * FROM users WHERE login='" . $user . "'");
`

// env is one daemon-in-a-test: server, pool, cache and recorder.
type env struct {
	ts   *httptest.Server
	srv  *Server
	pool *jobs.Pool
	rec  *obs.Recorder
}

// newEnv starts a test daemon; cfg mutators tweak the default config.
func newEnv(t *testing.T, workers, queueSize int, mutate ...func(*Config)) *env {
	t.Helper()
	rec := obs.NewRecorder()
	pool := jobs.New(jobs.Config{Workers: workers, QueueSize: queueSize, Recorder: rec})
	cfg := Config{
		Pool:     pool,
		Cache:    scancache.New(1<<20, rec),
		Recorder: rec,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		pool.Shutdown(ctx)
	})
	return &env{ts: ts, srv: srv, pool: pool, rec: rec}
}

// submitJSON posts a JSON submission and decodes the scan envelope.
func (e *env) submitJSON(t *testing.T, body string) (int, scanJSON) {
	t.Helper()
	resp, err := http.Post(e.ts.URL+"/v1/scans", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sc scanJSON
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sc); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, sc
}

// wait long-polls a scan until it leaves the queued/running states.
func (e *env) wait(t *testing.T, id string) scanJSON {
	t.Helper()
	resp, err := http.Get(e.ts.URL + "/v1/scans/" + id + "?wait=30s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sc scanJSON
	if err := json.NewDecoder(resp.Body).Decode(&sc); err != nil {
		t.Fatal(err)
	}
	if !settledState(sc.Status) {
		t.Fatalf("scan %s did not finish (status %s)", id, sc.Status)
	}
	return sc
}

func submission(name string) string {
	b, _ := json.Marshal(map[string]any{
		"name":  name,
		"files": map[string]string{name + ".php": vulnerablePHP},
	})
	return string(b)
}

func TestSubmitPollFetchAllFormats(t *testing.T) {
	t.Parallel()
	e := newEnv(t, 2, 8)

	status, sc := e.submitJSON(t, submission("demo"))
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", status)
	}
	if sc.ID == "" || sc.Status != stateQueued {
		t.Fatalf("submit envelope = %+v", sc)
	}

	done := e.wait(t, sc.ID)
	if done.Status != stateDone || done.Cached {
		t.Fatalf("finished scan = %+v", done)
	}
	if done.Result == nil || len(done.Result.Findings) == 0 {
		t.Fatalf("scan found nothing: %+v", done.Result)
	}
	var sawXSS, sawSQLi bool
	for _, f := range done.Result.Findings {
		sawXSS = sawXSS || f.Class == analyzer.XSS
		sawSQLi = sawSQLi || f.Class == analyzer.SQLi
	}
	if !sawXSS || !sawSQLi {
		t.Errorf("findings missed a class: XSS=%v SQLi=%v", sawXSS, sawSQLi)
	}

	// SARIF rendering.
	resp, err := http.Get(e.ts.URL + "/v1/scans/" + sc.ID + "?format=sarif")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/sarif+json" {
		t.Fatalf("sarif response: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(body, `"2.1.0"`) {
		t.Error("sarif body missing version")
	}

	// HTML rendering.
	resp, err = http.Get(e.ts.URL + "/v1/scans/" + sc.ID + "?format=html")
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, resp)
	if resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("html response: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(body, "<!DOCTYPE html>") {
		t.Error("html body is not a page")
	}
}

func TestSubmitZip(t *testing.T) {
	t.Parallel()
	e := newEnv(t, 2, 8)

	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for name, content := range map[string]string{
		"plugin/main.PHP":   vulnerablePHP, // uppercase extension must load
		"plugin/readme.txt": "ignored",
	} {
		f, err := zw.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte(content))
	}
	zw.Close()

	resp, err := http.Post(e.ts.URL+"/v1/scans?name=zipped", "application/zip", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("zip submit status = %d", resp.StatusCode)
	}
	var sc scanJSON
	if err := json.NewDecoder(resp.Body).Decode(&sc); err != nil {
		t.Fatal(err)
	}
	done := e.wait(t, sc.ID)
	if done.Status != stateDone || len(done.Result.Findings) == 0 {
		t.Fatalf("zip scan = %+v", done)
	}
	if done.Target != "zipped" {
		t.Errorf("target name = %q", done.Target)
	}
}

func TestBadRequests(t *testing.T) {
	t.Parallel()
	e := newEnv(t, 1, 4)

	cases := []struct {
		name, body string
		want       int
	}{
		{"invalid json", "{", http.StatusBadRequest},
		{"no files", `{"name":"x","files":{}}`, http.StatusBadRequest},
		{"no php files", `{"name":"x","files":{"a.txt":"hi"}}`, http.StatusBadRequest},
		{"unknown tool", `{"tool":"sonar","files":{"a.php":"<?php"}}`, http.StatusBadRequest},
		{"unknown pack", `{"profile":"no-such-pack","files":{"a.php":"<?php"}}`, http.StatusBadRequest},
		{"unknown pack in list", `{"rule_packs":["wordpress","no-such-pack"],"files":{"a.php":"<?php"}}`, http.StatusBadRequest},
		{"joomla is a builtin pack now", `{"profile":"joomla","files":{"a.php":"<?php"}}`, http.StatusAccepted},
	}
	for _, tc := range cases {
		status, _ := e.submitJSON(t, tc.body)
		if status != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, status, tc.want)
		}
	}

	// The unknown-pack rejection must tell the caller what packs exist.
	resp, err := http.Post(e.ts.URL+"/v1/scans", "application/json",
		strings.NewReader(`{"profile":"no-such-pack","files":{"a.php":"<?php"}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown pack status = %d, want 400", resp.StatusCode)
	}
	for _, name := range []string{"generic", "wordpress", "drupal", "joomla", "security-extended"} {
		if !strings.Contains(string(body), name) {
			t.Errorf("unknown-pack 400 body does not name pack %q: %s", name, body)
		}
	}

	if resp, err := http.Get(e.ts.URL + "/v1/scans/no-such-id"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown id status = %d, want 404", resp.StatusCode)
		}
	}

	// Unfinished scans have no report yet; rendering formats conflict.
	block := make(chan struct{})
	eSlow := newEnv(t, 1, 4, withBlockingAnalyzer(block, nil))
	// Registered after newEnv's cleanup so it runs first (cleanups run
	// last in, first out): the pool's drain then finds the scan released.
	t.Cleanup(func() { close(block) })
	_, sc := eSlow.submitJSON(t, submission("slow"))
	resp, err = http.Get(eSlow.ts.URL + "/v1/scans/" + sc.ID + "?format=sarif")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("sarif of unfinished scan = %d, want 409", resp.StatusCode)
	}
	resp, err = http.Get(eSlow.ts.URL + "/v1/scans/" + sc.ID + "?format=pdf")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("unknown format of unfinished scan = %d, want 409", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	t.Parallel()
	e := newEnv(t, 1, 4)

	resp, err := http.Get(e.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Errorf("healthz = %+v", health)
	}

	resp, err = http.Get(e.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom := readAll(t, resp)
	if !strings.Contains(prom, "# TYPE httpd_requests_total_healthz counter") {
		t.Errorf("prometheus exposition missing request counter:\n%s", prom)
	}

	resp, err = http.Get(e.ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := snap["counters"]; !ok {
		t.Errorf("json metrics missing counters: %v", snap)
	}
}

// blockingAnalyzer parks every Analyze call until released.
type blockingAnalyzer struct {
	release <-chan struct{}
	started chan<- struct{}
}

func (b blockingAnalyzer) Name() string { return "blocking" }

func (b blockingAnalyzer) AnalyzeContext(_ context.Context, t *analyzer.Target, _ *analyzer.ScanOptions) (*analyzer.Result, error) {
	if b.started != nil {
		select {
		case b.started <- struct{}{}:
		default: // only the first entry needs to be observable
		}
	}
	<-b.release
	return &analyzer.Result{Tool: "blocking", Target: t.Name, FilesAnalyzed: len(t.Files)}, nil
}

// withBlockingAnalyzer substitutes an engine that blocks on release;
// started (when non-nil) receives one value per Analyze entry.
func withBlockingAnalyzer(release <-chan struct{}, started chan<- struct{}) func(*Config) {
	return func(cfg *Config) {
		cfg.BuildTool = func(_, _ string, _ *obs.Recorder) (analyzer.Analyzer, error) {
			return blockingAnalyzer{release: release, started: started}, nil
		}
	}
}

// TestQueueSaturationReturns429 drives the acceptance scenario: a
// saturated queue sheds new submissions with 429 while every accepted
// job still completes.
func TestQueueSaturationReturns429(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	e := newEnv(t, 1, 2, withBlockingAnalyzer(release, started))

	// One scan occupies the worker; two fill the queue. Distinct file
	// contents keep the cache keys (and so the jobs) distinct.
	accepted := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		status, sc := e.submitJSON(t, fmt.Sprintf(`{"name":"p%d","files":{"a.php":"<?php echo %d;"}}`, i, i))
		if status != http.StatusAccepted {
			t.Fatalf("submit %d status = %d, want 202", i, status)
		}
		accepted = append(accepted, sc.ID)
		if i == 0 {
			<-started // worker is provably busy before we fill the queue
		}
	}

	status, _ := e.submitJSON(t, `{"name":"overflow","files":{"a.php":"<?php echo 99;"}}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated submit status = %d, want 429", status)
	}
	if got := e.rec.Snapshot().Counters["scans_rejected_total"]; got != 1 {
		t.Errorf("scans_rejected_total = %d, want 1", got)
	}

	// The rejection must not have lost accepted work.
	close(release)
	for _, id := range accepted {
		if done := e.wait(t, id); done.Status != stateDone {
			t.Errorf("accepted scan %s ended %s (%s)", id, done.Status, done.Error)
		}
	}
}

// TestDuplicateInFlightSubmissionJoins checks that submitting content
// identical to a queued scan answers with the existing job instead of
// consuming another queue slot.
func TestDuplicateInFlightSubmissionJoins(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	e := newEnv(t, 1, 2, withBlockingAnalyzer(release, started))

	_, first := e.submitJSON(t, submission("dup"))
	<-started
	status, second := e.submitJSON(t, submission("dup"))
	if status != http.StatusAccepted || second.ID != first.ID {
		t.Fatalf("duplicate submit = %d id %s, want 202 with id %s", status, second.ID, first.ID)
	}
	if got := e.rec.Snapshot().Counters["scans_joined_inflight_total"]; got != 1 {
		t.Errorf("scans_joined_inflight_total = %d, want 1", got)
	}
	close(release)
	if done := e.wait(t, first.ID); done.Status != stateDone {
		t.Fatalf("joined scan ended %s", done.Status)
	}
}

func TestFailedScanRetriesThenQuarantines(t *testing.T) {
	t.Parallel()
	e := newEnv(t, 1, 4, func(cfg *Config) {
		cfg.BuildTool = func(_, _ string, _ *obs.Recorder) (analyzer.Analyzer, error) {
			return failingAnalyzer{}, nil
		}
		cfg.Retry = jobs.RetryPolicy{MaxAttempts: 2, Base: 2 * time.Millisecond, Cap: 5 * time.Millisecond}
	})
	_, sc := e.submitJSON(t, submission("broken"))
	done := e.wait(t, sc.ID)
	if done.Status != stateQuarantined || done.Error == "" {
		t.Fatalf("failing scan = %+v, want quarantined with error", done)
	}
	if done.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (the full budget)", done.Attempts)
	}
	snap := e.rec.Snapshot()
	if got := snap.Counters["scans_quarantined_total"]; got != 1 {
		t.Errorf("scans_quarantined_total = %d, want 1", got)
	}
	if got := snap.Counters["scans_retried_total"]; got != 1 {
		t.Errorf("scans_retried_total = %d, want 1", got)
	}
	// Failures are not cached: a resubmission runs again.
	_, sc2 := e.submitJSON(t, submission("broken"))
	if sc2.Cached {
		t.Error("failed result must not be served from cache")
	}
}

type failingAnalyzer struct{}

func (failingAnalyzer) Name() string { return "failing" }
func (failingAnalyzer) AnalyzeContext(context.Context, *analyzer.Target, *analyzer.ScanOptions) (*analyzer.Result, error) {
	return nil, fmt.Errorf("engine exploded")
}

// ctxAnalyzer parks every scan on its context, like a long scan whose
// governor checkpoints are the only exit; it returns the partial
// result alongside the wrapped ctx error, matching the engine
// contract.
type ctxAnalyzer struct {
	started chan<- struct{}
}

func (c ctxAnalyzer) Name() string { return "ctxblocking" }

func (c ctxAnalyzer) Analyze(t *analyzer.Target) (*analyzer.Result, error) {
	return c.AnalyzeContext(context.Background(), t, nil)
}

func (c ctxAnalyzer) AnalyzeContext(ctx context.Context, t *analyzer.Target, _ *analyzer.ScanOptions) (*analyzer.Result, error) {
	select {
	case c.started <- struct{}{}:
	default:
	}
	<-ctx.Done()
	res := &analyzer.Result{Tool: c.Name(), Target: t.Name}
	return res, fmt.Errorf("scan cancelled: %w", ctx.Err())
}

// TestCancelRunningScanFreesWorker drives the acceptance scenario:
// cancelling a mid-flight scan settles it as "cancelled", frees its
// worker for the next job, and the daemon keeps serving.
func TestCancelRunningScanFreesWorker(t *testing.T) {
	t.Parallel()
	started := make(chan struct{}, 4)
	e := newEnv(t, 1, 4, func(cfg *Config) {
		cfg.BuildTool = func(_, _ string, _ *obs.Recorder) (analyzer.Analyzer, error) {
			return ctxAnalyzer{started: started}, nil
		}
	})

	_, first := e.submitJSON(t, submission("victim"))
	<-started // the single worker is provably inside the scan

	resp, err := http.Post(e.ts.URL+"/v1/scans/"+first.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d, want 202", resp.StatusCode)
	}

	done := e.wait(t, first.ID)
	if done.Status != stateCancelled {
		t.Fatalf("cancelled scan ended %s (%s)", done.Status, done.Error)
	}
	if done.Error == "" {
		t.Error("cancelled scan should carry the cancellation error")
	}
	if done.Result == nil || done.Result.Tool != "ctxblocking" {
		t.Errorf("cancelled scan lost its partial result: %+v", done.Result)
	}
	if got := e.rec.Snapshot().Counters["scans_cancelled_total"]; got != 1 {
		t.Errorf("scans_cancelled_total = %d, want 1", got)
	}

	// The worker is free: the next scan starts. The daemon still serves.
	_, second := e.submitJSON(t, submission("next"))
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker was not freed by the cancellation")
	}
	if resp, err := http.Get(e.ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after cancel: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	http.Post(e.ts.URL+"/v1/scans/"+second.ID+"/cancel", "", nil)
	e.wait(t, second.ID)

	// Cancelling a settled scan conflicts; unknown ids are 404.
	resp, err = http.Post(e.ts.URL+"/v1/scans/"+first.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("re-cancel status = %d, want 409", resp.StatusCode)
	}
	resp, err = http.Post(e.ts.URL+"/v1/scans/nope/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown-id cancel status = %d, want 404", resp.StatusCode)
	}
}

// TestCancelQueuedScanNeverRuns cancels a scan while it is still
// waiting in the queue; it must settle as cancelled without the
// engine ever starting.
func TestCancelQueuedScanNeverRuns(t *testing.T) {
	t.Parallel()
	started := make(chan struct{}, 4)
	e := newEnv(t, 1, 4, func(cfg *Config) {
		cfg.BuildTool = func(_, _ string, _ *obs.Recorder) (analyzer.Analyzer, error) {
			return ctxAnalyzer{started: started}, nil
		}
	})

	_, blocker := e.submitJSON(t, submission("blocker"))
	<-started
	_, queued := e.submitJSON(t, submission("waiting"))

	resp, err := http.Post(e.ts.URL+"/v1/scans/"+queued.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued cancel status = %d, want 202", resp.StatusCode)
	}

	// Free the worker; the queued scan must settle cancelled without
	// its engine ever entering Analyze.
	http.Post(e.ts.URL+"/v1/scans/"+blocker.ID+"/cancel", "", nil)
	e.wait(t, blocker.ID)
	done := e.wait(t, queued.ID)
	if done.Status != stateCancelled {
		t.Fatalf("queued-cancelled scan ended %s", done.Status)
	}
	select {
	case <-started:
		t.Error("cancelled queued scan still ran its engine")
	default:
	}
}

// TestBudgetOverridesClampedAndReported submits per-request budgets
// beyond and below the server caps and checks the clamped effective
// budgets on the scan record, plus genuine truncation (with its
// budget-keyed cache entry) when the step budget bites.
func TestBudgetOverridesClampedAndReported(t *testing.T) {
	t.Parallel()
	e := newEnv(t, 2, 8, func(cfg *Config) {
		cfg.Budgets = analyzer.ScanOptions{MaxSteps: 100_000, Deadline: 30 * time.Second}
	})

	// A source long enough that the interpreter provably crosses a
	// governor checkpoint (every 256 steps).
	var b strings.Builder
	b.WriteString("<?php\n$a = $_GET['x'];\n")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, "$v%d = $a . 'pad';\n", i)
	}
	b.WriteString("echo $a;\n")
	body, _ := json.Marshal(map[string]any{
		"name":         "clamped",
		"files":        map[string]string{"big.php": b.String()},
		"max_steps":    500,       // tightens below the 100k cap
		"deadline_ms":  3_600_000, // tries to exceed the 30s cap
		"max_findings": 50,        // tightens below the default
	})

	status, sc := e.submitJSON(t, string(body))
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", status)
	}
	if sc.Budgets == nil {
		t.Fatal("scan record has no effective budgets")
	}
	if sc.Budgets.MaxSteps != 500 {
		t.Errorf("effective max_steps = %d, want the tightened 500", sc.Budgets.MaxSteps)
	}
	if sc.Budgets.DeadlineMS != 30_000 {
		t.Errorf("effective deadline_ms = %d, want clamped 30000", sc.Budgets.DeadlineMS)
	}
	if sc.Budgets.MaxFindings != 50 {
		t.Errorf("effective max_findings = %d, want 50", sc.Budgets.MaxFindings)
	}

	done := e.wait(t, sc.ID)
	if done.Status != stateDone {
		t.Fatalf("budgeted scan ended %s (%s)", done.Status, done.Error)
	}
	if done.Result == nil || !done.Result.Truncated {
		t.Fatal("500-step scan of a 2000-statement file must be truncated")
	}
	found := false
	for _, dim := range done.Result.TruncatedBy {
		if dim == "steps" {
			found = true
		}
	}
	if !found {
		t.Errorf("truncated_by = %v, want to include steps", done.Result.TruncatedBy)
	}

	// The same content without the tight budget runs under a different
	// cache key: it must not be served the truncated result.
	full, _ := json.Marshal(map[string]any{
		"name":  "clamped",
		"files": map[string]string{"big.php": b.String()},
	})
	_, sc2 := e.submitJSON(t, string(full))
	if sc2.Cached {
		t.Fatal("default-budget submission reused the truncated result's cache entry")
	}
	done2 := e.wait(t, sc2.ID)
	if done2.Status != stateDone || done2.Result == nil || done2.Result.Truncated {
		t.Errorf("default-budget rescan = %s truncated=%v, want clean done",
			done2.Status, done2.Result != nil && done2.Result.Truncated)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// submissionFiles builds a JSON submission with an explicit file map.
func submissionFiles(name string, files map[string]string) string {
	b, _ := json.Marshal(map[string]any{"name": name, "files": files})
	return string(b)
}

func TestIncrementalReuseAcrossVersions(t *testing.T) {
	t.Parallel()
	e := newEnv(t, 2, 8, func(cfg *Config) {
		store, err := incremental.NewStore("", cfg.Recorder)
		if err != nil {
			t.Fatal(err)
		}
		cfg.IncStore = store
	})

	v1 := map[string]string{
		"a.php": `<?php echo $_GET['a'];`,
		"b.php": `<?php mysql_query("q" . $_POST['b']);`,
		"c.php": `<?php echo strip_tags($_COOKIE['c']);`,
	}
	_, sc := e.submitJSON(t, submissionFiles("plugin", v1))
	done := e.wait(t, sc.ID)
	if done.Status != stateDone {
		t.Fatalf("v1 scan ended %s: %s", done.Status, done.Error)
	}
	if done.Inc == nil || done.Inc.ReusedFiles != 0 {
		t.Fatalf("v1 incremental report = %+v, want cold scan", done.Inc)
	}

	// Version 2 changes one independent file: the other two reuse.
	v2 := map[string]string{
		"a.php": v1["a.php"],
		"b.php": v1["b.php"],
		"c.php": `<?php echo strip_tags($_COOKIE['c']); // patched`,
	}
	_, sc2 := e.submitJSON(t, submissionFiles("plugin", v2))
	done2 := e.wait(t, sc2.ID)
	if done2.Status != stateDone {
		t.Fatalf("v2 scan ended %s: %s", done2.Status, done2.Error)
	}
	if done2.Cached {
		t.Fatal("changed submission must not hit the whole-result cache")
	}
	if done2.Inc == nil || done2.Inc.ReusedFiles != 2 || done2.Inc.AnalyzedFiles != 1 {
		t.Fatalf("v2 incremental report = %+v, want 2 reused / 1 analyzed", done2.Inc)
	}

	// The reuse shows up on /metrics for scraping.
	resp, err := http.Get(e.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readAll(t, resp)
	if !strings.Contains(metrics, "inc_files_reused_total 2") {
		t.Errorf("metrics missing incremental reuse counter:\n%s", metrics)
	}
}

// TestIncrementalScanParsesUnderEngineSpans: a standalone daemon's
// scan runs through the incremental layer, and its files are still
// lexed and parsed by the engine — the lexer and parser counters move,
// and every file gets a parse:<file> span under the engine's model span.
func TestIncrementalScanParsesUnderEngineSpans(t *testing.T) {
	t.Parallel()
	e := newEnv(t, 1, 8, func(cfg *Config) {
		store, err := incremental.NewStore("", cfg.Recorder)
		if err != nil {
			t.Fatal(err)
		}
		cfg.IncStore = store
	})
	files := map[string]string{
		"a.php": `<?php echo $_GET['a'];`,
		"b.php": `<?php mysql_query("q" . $_POST['b']);`,
	}
	_, sc := e.submitJSON(t, submissionFiles("parsed", files))
	if done := e.wait(t, sc.ID); done.Status != stateDone || done.Inc == nil {
		t.Fatalf("scan ended %s (incremental report %+v): %s", done.Status, done.Inc, done.Error)
	}
	snap := e.rec.Snapshot()
	for _, name := range []string{"lex_tokens_total", "parse_ast_nodes_total"} {
		if snap.Counters[name] == 0 {
			t.Errorf("%s = 0 after an incremental scan", name)
		}
	}
	parsed := map[string]bool{}
	var walk func(s obs.SpanSnapshot)
	walk = func(s obs.SpanSnapshot) {
		for _, c := range s.Children {
			if s.Name == "model" && strings.HasPrefix(c.Name, "parse:") {
				parsed[strings.TrimPrefix(c.Name, "parse:")] = true
			}
			walk(c)
		}
	}
	for _, root := range snap.Spans {
		walk(root)
	}
	for path := range files {
		if !parsed[path] {
			t.Errorf("no parse:%s span under a model span (saw %v)", path, parsed)
		}
	}
}

func TestDiffEndpoint(t *testing.T) {
	t.Parallel()
	e := newEnv(t, 2, 8)

	old := map[string]string{
		"p.php": "<?php\necho $_GET['x'];\nmysql_query('q' . $_POST['y']);\n",
	}
	fixed := map[string]string{
		"p.php": "<?php\necho htmlspecialchars($_GET['x']);\nmysql_query('q' . $_POST['y']);\necho $_COOKIE['z'];\n",
	}
	_, scOld := e.submitJSON(t, submissionFiles("evolving", old))
	_, scNew := e.submitJSON(t, submissionFiles("evolving", fixed))
	if e.wait(t, scOld.ID).Status != stateDone || e.wait(t, scNew.ID).Status != stateDone {
		t.Fatal("scans did not finish")
	}

	resp, err := http.Get(e.ts.URL + "/v1/diffs?from=" + scOld.ID + "&to=" + scNew.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diff status = %d: %s", resp.StatusCode, readAll(t, resp))
	}
	var d diffJSON
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d.Fixed != 1 || d.Persisting != 1 || d.Introduced != 1 {
		t.Fatalf("diff = %+v, want 1 fixed / 1 persisting / 1 introduced", d)
	}
	if len(d.Changes) != 3 {
		t.Fatalf("diff changes = %d, want 3", len(d.Changes))
	}

	// Error paths: missing params and unknown ids.
	resp, err = http.Get(e.ts.URL + "/v1/diffs?from=" + scOld.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("diff without to = %d, want 400", resp.StatusCode)
	}
	readAll(t, resp)
	resp, err = http.Get(e.ts.URL + "/v1/diffs?from=nope&to=" + scNew.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("diff with unknown id = %d, want 404", resp.StatusCode)
	}
	readAll(t, resp)
}
