package repro

// Fleet integration test: boot a real coordinator + 2 real workers as
// separate phpsafed processes, submit a batch of scans, SIGKILL one
// worker mid-scan, and require every accepted scan to settle done with
// results byte-identical to a standalone daemon — with the resubmitted
// scans' traces recording the ownership handoff.

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

	"repro/internal/obs"
)

// fleetPHP is deliberately chunky: enough statements that a worker
// with a single pool slot holds a batch queued long enough for the test
// to see it there before the kill. Findings are deterministic.
func fleetPHP(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<?php // %s\n", name)
	b.WriteString("$base = $_GET['q'];\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "$v%d = $base . 'x%d';\n", i, i)
	}
	b.WriteString("echo $v999;\n")
	b.WriteString("mysql_query(\"SELECT * FROM t WHERE k='\" . $_POST['user'] . \"'\");\n")
	return b.String()
}

func TestFleetKillWorkerMidScan(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	bins := binaries(t)
	daemon := filepath.Join(bins, "phpsafed")
	journal := t.TempDir()

	reserve := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}
	w1Addr, w2Addr, coordAddr, soloAddr := reserve(), reserve(), reserve(), reserve()

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
		if cmd.ProcessState != nil {
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

	// Workers run a single pool slot each so the batch queues deep and
	// the kill lands with scans in flight and queued on the victim.
	worker1 := start("-role=worker", "-addr", w1Addr, "-pool-workers", "1", "-queue", "32",
		"-advertise", "http://"+w1Addr)
	defer stop(worker1)
	worker2 := start("-role=worker", "-addr", w2Addr, "-pool-workers", "1", "-queue", "32",
		"-advertise", "http://"+w2Addr)
	killed := false
	defer func() {
		if !killed {
			stop(worker2)
		}
	}()
	waitHealthy(w1Addr)
	waitHealthy(w2Addr)

	coord := start("-role=coordinator", "-addr", coordAddr,
		"-fleet-workers", "http://"+w1Addr+",http://"+w2Addr,
		"-journal", journal, "-queue", "64",
		"-heartbeat-interval", "100ms",
		"-max-attempts", "6", "-retry-base", "20ms", "-retry-cap", "200ms")
	defer stop(coord)
	waitHealthy(coordAddr)

	// Standalone baseline daemon for byte-identity.
	solo := start("-addr", soloAddr, "-pool-workers", "1", "-queue", "64")
	defer stop(solo)
	waitHealthy(soloAddr)

	post := func(addr, name string) (string, error) {
		body, _ := json.Marshal(map[string]any{
			"name":  name,
			"files": map[string]string{name + ".php": fleetPHP(name)},
		})
		resp, err := http.Post("http://"+addr+"/v1/scans", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", fmt.Errorf("submitting %s to %s: %v", name, addr, err)
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
	submit := func(addr, name string) string {
		t.Helper()
		id, err := post(addr, name)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	waitSettled := func(addr, id string) crashScanView {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get("http://" + addr + "/v1/scans/" + id)
			if err != nil {
				t.Fatalf("getting scan %s: %v", id, err)
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
		t.Fatalf("scan %s never settled; logs:\n%s", id, logs.String())
		return crashScanView{}
	}

	// Submit the batch, then kill one worker while it holds unsettled
	// scans: its queued and running dispatches are severed mid-flight.
	var names []string
	ids := make(map[string]string)
	// A batch is submitted all at once, so it queues on the workers'
	// single pool slots instead of draining as fast as it arrives.
	submitBatch := func(n int) []string {
		first := len(names)
		for i := 0; i < n; i++ {
			names = append(names, fmt.Sprintf("fleetscan%02d", first+i))
		}
		batch := make([]string, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range batch {
			wg.Add(1)
			go func() {
				defer wg.Done()
				batch[i], errs[i] = post(coordAddr, names[first+i])
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
	// victimBusy waits, within a bound, until the victim reads two of
	// the batch's scans (it names each by the coordinator's id) queued or
	// running: one is still there when the kill lands, however soon the
	// running one finishes.
	victimBusy := func(batch []string) bool {
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
			n := 0
			for _, id := range batch {
				resp, err := http.Get("http://" + w2Addr + "/v1/scans/" + id)
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
		return false
	}
	for batches := 1; !victimBusy(submitBatch(12)); batches++ {
		// The ring (built on random ports) may route every lineage of a
		// batch to the survivor, or the victim may finish its share
		// before it is seen: submit another batch.
		if batches == 5 {
			t.Fatalf("worker2 never held two unsettled scans across %d scans; logs:\n%s", len(names), logs.String())
		}
	}
	if err := worker2.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("killing worker: %v", err)
	}
	worker2.Wait()
	killed = true

	// A post-kill submission exercises the not-yet-detected-dead
	// window: its first dispatch may still route to the corpse.
	submitBatch(3)

	// Every accepted scan settles done, byte-identical to standalone.
	for _, name := range names {
		sc := waitSettled(coordAddr, ids[name])
		if sc.Status != "done" {
			t.Fatalf("scan %s = %s (%s), want done despite worker kill; logs:\n%s",
				name, sc.Status, sc.Error, logs.String())
		}
		ref := waitSettled(soloAddr, submit(soloAddr, name))
		if ref.Status != "done" {
			t.Fatalf("standalone baseline %s = %s (%s)", name, ref.Status, ref.Error)
		}
		if !bytes.Equal(sc.Result, ref.Result) {
			t.Errorf("scan %s: fleet result differs from standalone:\nfleet: %s\nsolo:  %s",
				name, sc.Result, ref.Result)
		}
	}

	// At least one scan was handed off, and its trace says so in
	// order: ownership_transferred, then resubmitted_to_peer, then the
	// dispatch to the survivor.
	handoffs := 0
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
		transferredAt, resubmittedAt, dispatchedAfter := -1, -1, -1
		for i, ev := range tr.Events {
			switch ev.Type {
			case "ownership_transferred":
				if transferredAt == -1 {
					transferredAt = i
				}
			case "resubmitted_to_peer":
				if resubmittedAt == -1 {
					resubmittedAt = i
				}
			case "dispatched":
				if transferredAt != -1 && dispatchedAfter == -1 && i > transferredAt {
					dispatchedAfter = i
				}
			}
		}
		if transferredAt == -1 {
			continue
		}
		handoffs++
		if !(transferredAt < resubmittedAt && resubmittedAt < dispatchedAfter) {
			t.Errorf("scan %s: handoff events out of order: transferred=%d resubmitted=%d dispatched=%d",
				name, transferredAt, resubmittedAt, dispatchedAfter)
		}
	}
	if handoffs == 0 {
		t.Errorf("no scan recorded an ownership handoff after the worker kill; logs:\n%s", logs.String())
	}

	// The coordinator's /readyz stays 200 on the surviving worker and
	// reports the corpse dead.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + coordAddr + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Fleet struct {
				Workers []struct {
					Addr  string `json:"addr"`
					State string `json:"state"`
				} `json:"workers"`
			} `json:"fleet"`
		}
		code := resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusOK {
			t.Fatalf("coordinator /readyz = %d with a surviving worker, want 200", code)
		}
		states := map[string]string{}
		for _, w := range body.Fleet.Workers {
			states[w.Addr] = w.State
		}
		if states["http://"+w2Addr] == "dead" && states["http://"+w1Addr] == "alive" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never reported the killed worker dead: %v", states)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
