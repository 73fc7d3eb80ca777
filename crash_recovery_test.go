package repro

// Crash-recovery integration test: boot the real phpsafed binary with
// a journal, SIGKILL it with scans accepted (some finished, some not),
// restart it on the same journal directory, and require every accepted
// scan to reach a settled state — with pre-crash results replayed
// byte-identically.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer guards the daemon's combined output: exec copies into it
// from a pipe goroutine while the test reads it for diagnostics.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// crashScanView is the subset of the daemon's scan envelope this test
// asserts on. Result stays raw so byte-identity is compared on the
// exact wire bytes, not a re-marshalled struct.
type crashScanView struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

func TestCrashRecoveryAcrossSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	bins := binaries(t)
	journal := t.TempDir()

	// Reserve a port; the listener is closed right before the daemon
	// takes it over.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	base := "http://" + addr

	var logs syncBuffer
	start := func() *exec.Cmd {
		cmd := exec.Command(filepath.Join(bins, "phpsafed"),
			"-addr", addr, "-pool-workers", "1", "-queue", "32",
			"-journal", journal,
			"-max-attempts", "2", "-retry-base", "10ms", "-retry-cap", "50ms")
		cmd.Stdout = &logs
		cmd.Stderr = &logs
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting phpsafed: %v", err)
		}
		return cmd
	}
	waitHealthy := func() {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(base + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("daemon never became healthy; logs:\n%s", logs.String())
	}
	submit := func(name string) string {
		t.Helper()
		body, _ := json.Marshal(map[string]any{
			"name": name,
			"files": map[string]string{
				// Distinct content per name so every submission is a
				// distinct cache key (and a distinct queued job).
				name + ".php": "<?php // " + name + "\necho $_GET['q'];\n",
			},
		})
		resp, err := http.Post(base+"/v1/scans", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("submitting %s: %v", name, err)
		}
		defer resp.Body.Close()
		var sc crashScanView
		if err := json.NewDecoder(resp.Body).Decode(&sc); err != nil {
			t.Fatalf("decoding %s submission: %v", name, err)
		}
		if sc.ID == "" {
			t.Fatalf("submission %s returned no id (HTTP %d)", name, resp.StatusCode)
		}
		return sc.ID
	}
	get := func(id string) (crashScanView, int) {
		t.Helper()
		resp, err := http.Get(base + "/v1/scans/" + id)
		if err != nil {
			t.Fatalf("getting scan %s: %v", id, err)
		}
		defer resp.Body.Close()
		var sc crashScanView
		if err := json.NewDecoder(resp.Body).Decode(&sc); err != nil {
			t.Fatalf("decoding scan %s: %v", id, err)
		}
		return sc, resp.StatusCode
	}
	settled := func(status string) bool {
		switch status {
		case "done", "cancelled", "quarantined":
			return true
		}
		return false
	}
	waitSettled := func(id string) crashScanView {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			sc, code := get(id)
			if code == http.StatusOK && settled(sc.Status) {
				return sc
			}
			time.Sleep(25 * time.Millisecond)
		}
		t.Fatalf("scan %s never settled; logs:\n%s", id, logs.String())
		return crashScanView{}
	}

	daemon := start()
	killed := false
	defer func() {
		if !killed {
			daemon.Process.Kill()
			daemon.Wait()
		}
	}()
	waitHealthy()

	// One scan runs to completion before the crash: its result is the
	// byte-identity baseline.
	first := submit("precrash")
	pre := waitSettled(first)
	if pre.Status != "done" || len(pre.Result) == 0 {
		t.Fatalf("pre-crash scan = %+v, want done with result", pre)
	}

	// More scans go in and the daemon dies hard — no drain, no journal
	// close — with work still queued behind the single worker.
	ids := []string{first}
	for i := 0; i < 4; i++ {
		ids = append(ids, submit(fmt.Sprintf("inflight%d", i)))
	}
	if err := daemon.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("killing daemon: %v", err)
	}
	daemon.Wait()
	killed = true

	// Restart on the same journal: every accepted scan must reach a
	// settled state, and nothing the client was promised may be lost.
	daemon2 := start()
	defer func() {
		daemon2.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { daemon2.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			daemon2.Process.Kill()
			daemon2.Wait()
		}
	}()
	waitHealthy()

	for _, id := range ids {
		sc := waitSettled(id)
		// The fixture is well-formed PHP: every recovered scan should
		// complete, not just settle.
		if sc.Status != "done" {
			t.Errorf("scan %s after restart = %s (%s), want done", id, sc.Status, sc.Error)
		}
	}

	// The pre-crash result was rehydrated from the journal, not
	// recomputed: its wire bytes are identical.
	post, code := get(first)
	if code != http.StatusOK {
		t.Fatalf("GET pre-crash scan after restart = %d", code)
	}
	if !bytes.Equal(pre.Result, post.Result) {
		t.Errorf("pre-crash result changed across restart:\npre:  %s\npost: %s", pre.Result, post.Result)
	}

	// The journal survives on disk for the next restart.
	if _, err := os.Stat(filepath.Join(journal, "wal.jsonl")); err != nil {
		t.Errorf("journal WAL missing after recovery: %v", err)
	}
	if !strings.Contains(logs.String(), "journal replay") {
		t.Errorf("restart logged no journal replay; logs:\n%s", logs.String())
	}
}
