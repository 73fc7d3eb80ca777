package repro

// Coordinator-restart adoption smoke test: boot a real coordinator +
// 2 real workers as separate phpsafed processes (workers with their
// own scan journals), put a batch of scans in flight, SIGKILL the
// coordinator, restart it on the same journal — and require that the
// replayed scans are ADOPTED from the workers, which hold them under
// the coordinator's scan ids (GET /v1/scans/{id}), rather than
// resubmitted: every scan settles done, at least one trace records an
// adopted event, and each coordinator scan id has exactly one accepted
// record across all worker journals (a resubmission that re-ran the
// scan would have left a second).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// adoptPHP is much heavier than fleetPHP: the batch must still be in
// flight on single-slot workers when the coordinator is killed, so
// each scan needs hundreds of milliseconds of analysis.
func adoptPHP(name string) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "<?php // %s\n", name)
	b.WriteString("$base = $_GET['q'];\n")
	for i := 0; i < 2500; i++ {
		fmt.Fprintf(&b, "$v%d = $base . 'x%d';\n", i, i)
	}
	b.WriteString("echo $v2499;\n")
	b.WriteString("mysql_query(\"SELECT * FROM t WHERE k='\" . $_POST['user'] . \"'\");\n")
	return b.String()
}

func TestCoordinatorRestartAdoptsInflight(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	bins := binaries(t)
	daemon := filepath.Join(bins, "phpsafed")
	coordJournal := t.TempDir()
	w1Journal := t.TempDir()
	w2Journal := t.TempDir()

	reserve := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}
	w1Addr, w2Addr, coordAddr := reserve(), reserve(), reserve()

	var logs syncBuffer
	start := func(args ...string) *exec.Cmd {
		cmd := exec.Command(daemon, args...)
		cmd.Stdout = &logs
		cmd.Stderr = &logs
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting phpsafed %v: %v", args, err)
		}
		return cmd
	}
	stop := func(cmd *exec.Cmd) {
		if cmd == nil || cmd.ProcessState != nil {
			return
		}
		cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
	waitHealthy := func(addr string) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get("http://" + addr + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("daemon on %s never became healthy; logs:\n%s", addr, logs.String())
	}

	// Workers: single pool slot so the batch queues deep (scans still in
	// flight when the coordinator dies), each with its own scan journal.
	worker1 := start("-role=worker", "-addr", w1Addr, "-pool-workers", "1", "-queue", "32",
		"-advertise", "http://"+w1Addr, "-journal", w1Journal)
	defer stop(worker1)
	worker2 := start("-role=worker", "-addr", w2Addr, "-pool-workers", "1", "-queue", "32",
		"-advertise", "http://"+w2Addr, "-journal", w2Journal)
	defer stop(worker2)
	waitHealthy(w1Addr)
	waitHealthy(w2Addr)

	coordArgs := []string{"-role=coordinator", "-addr", coordAddr,
		"-fleet-workers", "http://" + w1Addr + ",http://" + w2Addr,
		"-journal", coordJournal, "-queue", "64",
		"-heartbeat-interval", "100ms",
		"-max-attempts", "8", "-retry-base", "20ms", "-retry-cap", "200ms"}
	coord := start(coordArgs...)
	coordStopped := false
	defer func() {
		if !coordStopped {
			stop(coord)
		}
	}()
	waitHealthy(coordAddr)

	// submit returns an error rather than failing the test: it runs on
	// the batch's goroutines.
	submit := func(name string) (string, error) {
		body, _ := json.Marshal(map[string]any{
			"name":  name,
			"files": map[string]string{name + ".php": adoptPHP(name)},
		})
		resp, err := http.Post("http://"+coordAddr+"/v1/scans", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", fmt.Errorf("submitting %s: %v", name, err)
		}
		defer resp.Body.Close()
		var sc crashScanView
		if err := json.NewDecoder(resp.Body).Decode(&sc); err != nil {
			return "", fmt.Errorf("decoding %s submission: %v", name, err)
		}
		if sc.ID == "" {
			return "", fmt.Errorf("submission %s returned no id (HTTP %d)", name, resp.StatusCode)
		}
		return sc.ID, nil
	}

	// Batches are submitted all at once, so they queue on the workers'
	// single pool slots instead of draining as fast as they arrive.
	var names []string
	ids := make(map[string]string)
	submitBatch := func(n int) []string {
		first := len(names)
		for i := 0; i < n; i++ {
			names = append(names, fmt.Sprintf("adopt%02d", first+i))
		}
		batch := make([]string, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range batch {
			wg.Add(1)
			go func() {
				defer wg.Done()
				batch[i], errs[i] = submit(names[first+i])
			}()
		}
		wg.Wait()
		for i, id := range batch {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			ids[names[first+i]] = id
		}
		return batch
	}

	// Wait, within a bound, until the workers actually hold two of the
	// batch's scans queued or running — the kill must land with work in
	// flight for adoption to have anything to adopt. A worker names each
	// scan by the coordinator's id.
	unsettledInflight := func(batch []string) bool {
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
			n := 0
			for _, id := range batch {
				for _, wa := range []string{w1Addr, w2Addr} {
					resp, err := http.Get("http://" + wa + "/v1/scans/" + id)
					if err != nil {
						continue
					}
					var sc crashScanView
					err = json.NewDecoder(resp.Body).Decode(&sc)
					resp.Body.Close()
					if err == nil && (sc.Status == "queued" || sc.Status == "running") {
						if n++; n == 2 {
							return true
						}
					}
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
		return false
	}
	for batches := 1; !unsettledInflight(submitBatch(8)); batches++ {
		// The workers may finish a batch before the poll sees two of
		// its scans unsettled: submit another.
		if batches == 5 {
			t.Fatalf("workers never reported unsettled dispatches across %d scans; logs:\n%s", len(names), logs.String())
		}
	}

	// SIGKILL the coordinator mid-batch and restart it on the same
	// journal and address.
	if err := coord.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("killing coordinator: %v", err)
	}
	coord.Wait()
	coordStopped = true

	coord2 := start(coordArgs...)
	defer stop(coord2)
	waitHealthy(coordAddr)

	// Every scan settles done on the restarted coordinator.
	waitSettled := func(id string) crashScanView {
		t.Helper()
		settleBy := time.Now().Add(60 * time.Second)
		for time.Now().Before(settleBy) {
			resp, err := http.Get("http://" + coordAddr + "/v1/scans/" + id)
			if err != nil {
				time.Sleep(25 * time.Millisecond)
				continue
			}
			var sc crashScanView
			err = json.NewDecoder(resp.Body).Decode(&sc)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("decoding scan %s: %v", id, err)
			}
			switch sc.Status {
			case "done", "cancelled", "quarantined":
				return sc
			}
			time.Sleep(25 * time.Millisecond)
		}
		t.Fatalf("scan %s never settled after restart; logs:\n%s", id, logs.String())
		return crashScanView{}
	}
	for _, name := range names {
		sc := waitSettled(ids[name])
		if sc.Status != "done" {
			t.Fatalf("scan %s = %s (%s) after coordinator restart, want done; logs:\n%s",
				name, sc.Status, sc.Error, logs.String())
		}
	}

	// At least one replayed scan must have been adopted from a worker —
	// the restart happened mid-batch, so the workers were still
	// carrying work.
	adopted := 0
	for _, name := range names {
		resp, err := http.Get("http://" + coordAddr + "/v1/scans/" + ids[name] + "/trace")
		if err != nil {
			t.Fatalf("trace %s: %v", name, err)
		}
		var tr struct {
			Events []obs.Event `json:"events"`
		}
		err = json.NewDecoder(resp.Body).Decode(&tr)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding trace %s: %v", name, err)
		}
		for _, ev := range tr.Events {
			if ev.Type == "adopted" {
				adopted++
				break
			}
		}
	}
	if adopted == 0 {
		t.Errorf("no scan trace records an adopted event after coordinator restart; logs:\n%s", logs.String())
	}
	t.Logf("adopted %d of %d scans", adopted, len(names))

	// The no-duplicate-attempt check: across both worker journals, every
	// coordinator scan id has exactly one accepted record. A coordinator
	// that resubmitted instead of adopting would have left a second (a
	// re-acceptance on this worker, or an acceptance on the peer via
	// handoff).
	accepted := make(map[string]int, len(ids))
	for _, dir := range []string{w1Journal, w2Journal} {
		for _, file := range []string{"wal.jsonl", "snapshot.jsonl"} {
			f, err := os.Open(filepath.Join(dir, file))
			if err != nil {
				continue
			}
			scanner := bufio.NewScanner(f)
			scanner.Buffer(make([]byte, 0, 1<<20), 1<<24)
			for scanner.Scan() {
				// Journal lines are "crc8hex json" — strip the checksum
				// prefix before decoding.
				line := scanner.Bytes()
				if sp := bytes.IndexByte(line, ' '); sp >= 0 {
					line = line[sp+1:]
				}
				var rec struct {
					Type string `json:"type"`
					Scan string `json:"scan"`
				}
				if json.Unmarshal(line, &rec) != nil {
					continue
				}
				if rec.Type == "accepted" {
					accepted[rec.Scan]++
				}
			}
			f.Close()
		}
	}
	for name, id := range ids {
		if got := accepted[id]; got != 1 {
			t.Errorf("scan %s: %d accepted records of %s across worker journals, want exactly 1 (adoption, not resubmission)",
				name, got, id)
		}
	}
}
