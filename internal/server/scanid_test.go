package server

import (
	"context"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/durable"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// namedSpec is a one-file submission naming its scan id.
func namedSpec(id string) SubmitSpec {
	return SubmitSpec{ID: id, Name: "named", Target: &analyzer.Target{
		Files: []analyzer.SourceFile{{Path: "a.php", Content: "<?php echo $_GET['q'];\n"}},
	}}
}

// TestExplicitScanID: a submission naming its scan id (a fleet worker
// accepting a dispatch under the coordinator's id) creates the scan
// under that id; naming it again joins it while it is queued, is
// answered from it once it is done, and re-accepts it under the same id
// with a fresh attempt budget once it is quarantined. An id that cannot
// be a registry key, a journal key and a URL segment is refused.
func TestExplicitScanID(t *testing.T) {
	t.Parallel()
	t.Run("queued joins, done answers", func(t *testing.T) {
		t.Parallel()
		e := newEnv(t, 1, 4)
		// Hold the only pool slot so the scan stays queued.
		release := make(chan struct{})
		held := make(chan struct{})
		if err := e.pool.Submit(func(context.Context) { close(held); <-release }); err != nil {
			t.Fatal(err)
		}
		<-held
		unblock := sync.OnceFunc(func() { close(release) })
		t.Cleanup(unblock)
		id, status, _ := e.srv.Accept(namedSpec("coord-1"))
		if id != "coord-1" || status != http.StatusAccepted {
			t.Fatalf("Accept = %q HTTP %d, want coord-1 202", id, status)
		}
		id, status, body := e.srv.Accept(namedSpec("coord-1"))
		if view, _ := body.(scanJSON); id != "coord-1" || status != http.StatusAccepted || view.Status != stateQueued {
			t.Fatalf("second Accept = %q HTTP %d %+v, want coord-1 202 queued", id, status, body)
		}
		if got := e.counter("scans_joined_inflight_total"); got != 1 {
			t.Errorf("scans_joined_inflight_total = %d, want 1", got)
		}
		unblock()
		if done := e.wait(t, "coord-1"); done.Status != stateDone {
			t.Fatalf("coord-1 = %s, want done", done.Status)
		}
		id, status, body = e.srv.Accept(namedSpec("coord-1"))
		if view, _ := body.(scanJSON); id != "coord-1" || status != http.StatusOK || view.Status != stateDone || view.Result == nil {
			t.Fatalf("Accept of the done scan = %q HTTP %d %+v, want coord-1 200 with its result", id, status, body)
		}
		if got := e.counter("scans_accepted_total"); got != 1 {
			t.Errorf("scans_accepted_total = %d, want 1", got)
		}
	})
	t.Run("quarantined re-accepts", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		healed := &atomic.Bool{}
		e := newJournalEnv(t, dir, func(cfg *Config) {
			cfg.BuildTool = func(_, _ string, _ *obs.Recorder) (analyzer.Analyzer, error) {
				return healingAnalyzer{healed: healed}, nil
			}
			cfg.Retry = jobs.RetryPolicy{MaxAttempts: 2, Base: time.Millisecond, Cap: 2 * time.Millisecond}
		})
		e.srv.Accept(namedSpec("coord-2"))
		if got := e.wait(t, "coord-2"); got.Status != stateQuarantined || got.Attempts != 2 {
			t.Fatalf("coord-2 = %s after %d attempts, want quarantined after 2", got.Status, got.Attempts)
		}
		healed.Store(true)
		id, status, _ := e.srv.Accept(namedSpec("coord-2"))
		if id != "coord-2" || status != http.StatusAccepted {
			t.Fatalf("Accept of the quarantined scan = %q HTTP %d, want coord-2 202", id, status)
		}
		if got := e.wait(t, "coord-2"); got.Status != stateDone || got.Attempts != 1 {
			t.Errorf("re-accepted coord-2 = %s after %d attempts, want done after 1 (fresh budget)", got.Status, got.Attempts)
		}
		accepted := 0
		for _, r := range journalLines(t, filepath.Join(dir, "wal.jsonl")) {
			if r.Type == durable.RecAccepted && r.ScanID == "coord-2" {
				accepted++
			}
		}
		if accepted != 2 {
			t.Errorf("journal holds %d accepted records of coord-2, want 2 (the re-acceptance reopens it)", accepted)
		}
	})
	t.Run("bad ids", func(t *testing.T) {
		t.Parallel()
		e := newEnv(t, 1, 4)
		for _, id := range []string{strings.Repeat("a", 65), "a/b", "..", "a b", "caf\xe9", "%2e"} {
			if got, status, _ := e.srv.Accept(namedSpec(id)); got != "" || status != http.StatusBadRequest {
				t.Errorf("Accept(ID %q) = %q HTTP %d, want 400", id, got, status)
			}
		}
		long := strings.Repeat("Az09._-", 10)[:64]
		if got, status, _ := e.srv.Accept(namedSpec(long)); got != long || status != http.StatusAccepted {
			t.Errorf("Accept(ID %q) = %q HTTP %d, want it accepted under that id", long, got, status)
		}
		unnamed := namedSpec("")
		unnamed.Target.Files[0].Content = "<?php echo 1;\n"
		if got, status, _ := e.srv.Accept(unnamed); got == "" || got == long || status != http.StatusAccepted {
			t.Errorf("Accept without an id = %q HTTP %d, want a random id", got, status)
		}
	})
}
