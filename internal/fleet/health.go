// Heartbeat monitoring. The coordinator probes every worker's
// /internal/v1/heartbeat on a fixed cadence; consecutive misses walk
// the worker alive → suspect → dead. Dead workers are probed on the
// jobs pool's jittered exponential backoff schedule rather than every
// tick — the fleet's "reconnect loop" is the existing RetryPolicy, not
// a new one — and revive to alive on the first successful probe.
// Dispatch outcomes feed the same accounting: a failed dispatch counts
// as a miss (the fastest death detector is a connection refused), a
// successful one refreshes lastBeat.

package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
)

// heartbeatPayload is what a worker's heartbeat endpoint reports.
type heartbeatPayload struct {
	Advertise  string `json:"advertise,omitempty"`
	Inflight   int    `json:"inflight"`
	QueueDepth int    `json:"queue_depth"`
	Workers    int    `json:"workers"`
}

// monitor is the probe loop: every HeartbeatInterval it probes each
// worker that is due (alive/suspect workers every tick, dead workers
// when their backoff expires), each probe on its own goroutine so one
// hung worker cannot stall detection of the others.
func (f *Fleet) monitor() {
	defer f.wg.Done()
	f.probeDue() // immediate first sweep: catch absent workers fast
	t := time.NewTicker(f.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-f.quit:
			return
		case <-t.C:
			f.probeDue()
		}
	}
}

func (f *Fleet) probeDue() {
	now := f.rec.Now()
	f.mu.Lock()
	var due []string
	for addr, w := range f.workers {
		if w.probing {
			continue
		}
		if w.state == StateDead && now.Before(w.nextProbe) {
			continue
		}
		w.probing = true
		due = append(due, addr)
	}
	f.mu.Unlock()
	for _, addr := range due {
		f.wg.Add(1)
		go func(addr string) {
			defer f.wg.Done()
			f.probe(addr)
		}(addr)
	}
}

// probe performs one heartbeat round-trip and settles the outcome. The
// round trip may take as long as DeadAfter intervals, the time in which
// the monitor declares a silent worker dead: on a loaded machine a slow
// answer is still an answer, while a refused, reset or blackholed
// connection fails at once and counts as a miss immediately.
func (f *Fleet) probe(addr string) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(f.cfg.DeadAfter)*f.cfg.HeartbeatInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/internal/v1/heartbeat", nil)
	if err != nil {
		f.settleProbe(addr, nil, err)
		return
	}
	resp, err := f.client.Do(req)
	if err != nil {
		f.settleProbe(addr, nil, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		f.settleProbe(addr, nil, errWorkerStatus(resp.StatusCode))
		return
	}
	var hb heartbeatPayload
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		f.settleProbe(addr, nil, err)
		return
	}
	f.settleProbe(addr, &hb, nil)
}

func (f *Fleet) settleProbe(addr string, hb *heartbeatPayload, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	w, ok := f.workers[addr]
	if !ok {
		return
	}
	w.probing = false
	if err != nil {
		f.missLocked(w, err)
		return
	}
	f.reviveLocked(w)
	w.inflight = hb.Inflight
	w.queueDepth = hb.QueueDepth
}

// ReportSuccess records a successful dispatch round-trip to addr: as
// good a liveness signal as a heartbeat.
func (f *Fleet) ReportSuccess(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if w, ok := f.workers[addr]; ok {
		f.reviveLocked(w)
	}
}

// ReportFailure records a failed dispatch to addr as a heartbeat miss,
// so a refused connection demotes the worker without waiting for the
// probe loop to notice.
func (f *Fleet) ReportFailure(addr string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if w, ok := f.workers[addr]; ok {
		f.missLocked(w, err)
	}
}

// reviveLocked credits w with one success; caller holds f.mu. An alive
// worker just refreshes its beat. A suspect/dead worker must bank
// reviveAfter consecutive successes before it re-enters the ring —
// flap damping: a link that alternates one good probe with one bad
// never revives, so it cannot thrash ownership back and forth. Each
// suppressed revival is counted; a miss resets the bank.
func (f *Fleet) reviveLocked(w *workerHealth) {
	w.lastBeat = f.rec.Now()
	if w.state == StateAlive {
		w.misses = 0
		w.revives = 0
		return
	}
	w.revives++
	if w.revives < reviveAfter {
		f.rec.Counter("fleet_flaps_suppressed_total").Inc()
		// Keep probing a dead worker every tick while it is answering:
		// the reconnect backoff is for workers that stay silent.
		w.nextProbe = time.Time{}
		f.log.Debug("fleet worker revival suppressed",
			"worker", w.addr, "state", w.state,
			"consecutive_successes", w.revives, "need", reviveAfter)
		return
	}
	prev := w.state
	w.state = StateAlive
	w.misses = 0
	w.revives = 0
	f.log.Info("fleet worker recovered", "worker", w.addr, "previous_state", prev)
	f.publishGaugesLocked()
}

// missLocked counts one failure against w and applies the state walk;
// caller holds f.mu.
func (f *Fleet) missLocked(w *workerHealth, err error) {
	w.misses++
	w.revives = 0
	prev := w.state
	switch {
	case w.misses >= f.cfg.DeadAfter:
		w.state = StateDead
	case w.misses >= suspectAfter:
		if w.state != StateDead {
			w.state = StateSuspect
		}
	}
	if w.state == prev {
		if w.state == StateDead {
			// Still dead: schedule the next reconnect probe along the
			// jittered exponential curve, attempt-indexed by how long
			// it has been dead.
			w.nextProbe = f.rec.Now().Add(f.cfg.ReconnectBackoff.Backoff(w.misses - f.cfg.DeadAfter + 1))
		}
		return
	}
	f.log.Warn("fleet worker state change",
		"worker", w.addr, "state", w.state, "previous_state", prev,
		"misses", w.misses, "error", err.Error())
	if w.state == StateSuspect && prev == StateAlive {
		// Daemon-level event: the loss itself, before any per-scan
		// consequence is recorded.
		f.rec.Events().Append(obs.Event{Type: EvHeartbeatLost, Detail: w.addr, Err: err.Error()})
	}
	if w.state == StateDead {
		w.nextProbe = f.rec.Now().Add(f.cfg.ReconnectBackoff.Backoff(1))
		// Sever the dead worker's in-flight dispatches: each severed
		// dispatch returns a retryable error to the jobs layer, whose
		// retry re-picks the ring owner — the handoff path.
		for id, cancel := range w.dispatches {
			f.rec.Events().Append(obs.Event{Scan: id, Type: EvHeartbeatLost, Detail: w.addr, Err: err.Error()})
			cancel()
			delete(w.dispatches, id)
		}
	}
	f.publishGaugesLocked()
}

type errWorkerStatus int

func (e errWorkerStatus) Error() string {
	return fmt.Sprintf("worker heartbeat returned HTTP %d", int(e))
}
