package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"
)

// waitResult is one GET answer and when it arrived.
type waitResult struct {
	code int
	view scanJSON
	body string
	at   time.Time
}

// getAsync issues GET path in the background and delivers the answer.
func (e *env) getAsync(t *testing.T, path string) <-chan waitResult {
	t.Helper()
	out := make(chan waitResult, 1)
	go func() {
		resp, err := http.Get(e.ts.URL + path)
		if err != nil {
			t.Error(err)
			out <- waitResult{}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		r := waitResult{code: resp.StatusCode, body: string(body), at: time.Now()}
		_ = json.Unmarshal([]byte(r.body), &r.view)
		out <- r
	}()
	return out
}

// startBlockedScan submits one scan to a daemon whose engine blocks
// until release is closed, and returns once the scan is running.
func startBlockedScan(t *testing.T) (*env, string, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	e := newEnv(t, 1, 4, withBlockingAnalyzer(release, started))
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	_, sc := e.submitJSON(t, submission("waited"))
	<-started
	return e, sc.ID, release
}

// noAnswerWithin fails if ch delivers within d.
func noAnswerWithin(t *testing.T, ch <-chan waitResult, d time.Duration) {
	t.Helper()
	select {
	case r := <-ch:
		t.Fatalf("wait answered early: HTTP %d status %s", r.code, r.view.Status)
	case <-time.After(d):
	}
}

// TestWaitReturnsOnSettle: a waiting GET is answered as soon as the
// scan settles, with the settled view.
func TestWaitReturnsOnSettle(t *testing.T) {
	t.Parallel()
	e, id, release := startBlockedScan(t)
	ch := e.getAsync(t, "/v1/scans/"+id+"?wait=20s")
	noAnswerWithin(t, ch, 100*time.Millisecond)
	settle := time.Now()
	close(release)
	r := <-ch
	if r.code != http.StatusOK || r.view.Status != stateDone {
		t.Fatalf("wait answered HTTP %d status %s, want 200 done", r.code, r.view.Status)
	}
	// The answer follows the settle by a scheduling delay, not a poll
	// interval; the bound only absorbs a loaded machine.
	if lag := r.at.Sub(settle); lag > 250*time.Millisecond {
		t.Errorf("wait answered %s after the settle", lag)
	}
	t.Logf("answered %s after release", r.at.Sub(settle))
}

// TestWaitEndsAtRequestedDuration: a scan still running when the wait
// runs out is answered with its running view.
func TestWaitEndsAtRequestedDuration(t *testing.T) {
	t.Parallel()
	e, id, _ := startBlockedScan(t)
	start := time.Now()
	r := <-e.getAsync(t, "/v1/scans/"+id+"?wait=150ms")
	if r.code != http.StatusOK || r.view.Status != stateRunning {
		t.Fatalf("wait answered HTTP %d status %s, want 200 running", r.code, r.view.Status)
	}
	if took := r.at.Sub(start); took < 150*time.Millisecond || took > 5*time.Second {
		t.Errorf("wait=150ms answered after %s", took)
	}
}

// TestParseWaitCapsAtMaxScanWait: longer waits are cut to the cap,
// malformed and negative ones are refused.
func TestParseWaitCapsAtMaxScanWait(t *testing.T) {
	t.Parallel()
	for in, want := range map[string]time.Duration{
		"": 0, "0s": 0, "250ms": 250 * time.Millisecond, "1h": MaxScanWait,
	} {
		if got, err := parseWait(in); err != nil || got != want {
			t.Errorf("parseWait(%q) = %s, %v; want %s", in, got, err, want)
		}
	}
	for _, bad := range []string{"soon", "-1s", "30"} {
		if _, err := parseWait(bad); err == nil {
			t.Errorf("parseWait(%q) accepted", bad)
		}
	}
	e := newEnv(t, 1, 4)
	resp, err := http.Get(e.ts.URL + "/v1/scans/x?wait=soon")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("wait=soon = HTTP %d, want 400", resp.StatusCode)
	}
}

// TestWaitAnswersSettledAndUnknownAtOnce: nothing to wait for means no
// waiting.
func TestWaitAnswersSettledAndUnknownAtOnce(t *testing.T) {
	t.Parallel()
	e := newEnv(t, 1, 4)
	_, sc := e.submitJSON(t, submission("settled"))
	e.wait(t, sc.ID)
	for path, code := range map[string]int{
		"/v1/scans/" + sc.ID + "?wait=20s": http.StatusOK,
		"/v1/scans/nope?wait=20s":          http.StatusNotFound,
	} {
		start := time.Now()
		r := <-e.getAsync(t, path)
		if r.code != code {
			t.Errorf("%s = HTTP %d, want %d", path, r.code, code)
		}
		if took := r.at.Sub(start); took > 2*time.Second {
			t.Errorf("%s answered after %s, want at once", path, took)
		}
	}
}

// TestWaitEndsOnStartDrain: draining answers every open wait with the
// current view; a scan the shutdown interrupts would never settle.
func TestWaitEndsOnStartDrain(t *testing.T) {
	t.Parallel()
	e, id, _ := startBlockedScan(t)
	ch := e.getAsync(t, "/v1/scans/"+id+"?wait=20s")
	noAnswerWithin(t, ch, 100*time.Millisecond)
	e.srv.StartDrain()
	select {
	case r := <-ch:
		if r.code != http.StatusOK || r.view.Status != stateRunning {
			t.Fatalf("drained wait answered HTTP %d status %s, want 200 running", r.code, r.view.Status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wait still open 5s after StartDrain")
	}
	// Waits opened while draining do not block either.
	start := time.Now()
	if r := <-e.getAsync(t, "/v1/scans/"+id+"?wait=20s"); r.at.Sub(start) > 2*time.Second {
		t.Errorf("wait during drain answered after %s", r.at.Sub(start))
	}
}

// TestWaitEndsWhenClientLeaves: a cancelled request context ends the
// wait.
func TestWaitEndsWhenClientLeaves(t *testing.T) {
	t.Parallel()
	e, id, _ := startBlockedScan(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	view, ok := e.srv.awaitView(ctx, id, 20*time.Second)
	if !ok || view.Status != stateRunning {
		t.Fatalf("awaitView = %v %s, want running", ok, view.Status)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("awaitView outlived its context by %s", took)
	}
}

// TestWaitRendersFormat: format= applies to the settled scan the wait
// returns.
func TestWaitRendersFormat(t *testing.T) {
	t.Parallel()
	e, id, release := startBlockedScan(t)
	ch := e.getAsync(t, "/v1/scans/"+id+"?wait=20s&format=sarif")
	noAnswerWithin(t, ch, 50*time.Millisecond)
	close(release)
	r := <-ch
	if r.code != http.StatusOK {
		t.Fatalf("wait&format=sarif = HTTP %d: %s", r.code, r.body)
	}
	var sarif struct {
		Version string `json:"version"`
	}
	if err := json.Unmarshal([]byte(r.body), &sarif); err != nil || sarif.Version != "2.1.0" {
		t.Fatalf("wait&format=sarif body is not SARIF 2.1.0 (%v): %.200s", err, r.body)
	}
}
