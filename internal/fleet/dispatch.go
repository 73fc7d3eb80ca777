// Dispatch: executing one scan attempt on the worker that owns the
// scan's routing key (server.DispatchRequest.Key). Dispatch plugs into
// server.Config.Dispatch, so it runs inside the coordinator's jobs pool
// with the full retry lifecycle around it; its error contract is
// therefore the jobs classification:
//
//	plain error        → retryable; the next attempt re-picks the ring
//	                     owner, which is how handoff happens
//	jobs.Terminal(err) → the worker rejected the submission as
//	                     malformed; retrying cannot help
//	ctx.Err()          → the coordinator cancelled or is shutting
//	                     down; the scan settles cancelled or replays
//	                     as jobs.ErrInterrupted, never terminally
//
// The severed-dispatch case is the subtle one: when the health monitor
// declares a worker dead it cancels that worker's dispatch contexts.
// That cancellation must NOT surface as context.Canceled (jobs would
// classify the scan as cancelled and settle it); Dispatch detects
// "my context died but the scan's didn't" and returns a plain
// retryable error instead, so the attempt budget and the ring decide
// what happens next.

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/analyzer"
	"repro/internal/incremental"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
)

// maxTrackedOwners bounds the lastOwner map (scan ids are bounded by
// the server's registry cap, but the fleet should not trust that).
const maxTrackedOwners = 8192

// workerScanView is the slice of the worker's scan envelope the
// coordinator reads back.
type workerScanView struct {
	ID     string              `json:"id"`
	Status string              `json:"status"`
	Result *analyzer.Result    `json:"result"`
	Inc    *incremental.Report `json:"incremental"`
	Error  string              `json:"error"`
}

// Dispatch executes one scan attempt on the ring owner of req.Key.
// When hedging is configured a second branch races the primary after
// the hedge delay; the first settled result wins and the loser is
// cancelled. A replayed scan (req.Resubmitted) first asks the workers
// for its scan id and adopts a pre-restart dispatch one still holds
// instead of starting a duplicate.
func (f *Fleet) Dispatch(ctx context.Context, req *server.DispatchRequest) (*server.DispatchResult, error) {
	if req.Resubmitted {
		if res, err, adopted := f.adopt(ctx, req); adopted {
			return res, err
		}
	}

	// One frame per dispatch: hedged branches send the same bytes.
	body, err := encodeDispatch(req)
	if err != nil {
		return nil, jobs.Terminal(fmt.Errorf("fleet: encode dispatch: %w", err))
	}
	want := 1
	if f.cfg.HedgeDelay > 0 {
		want = 2
	}
	owners, ok := f.pickOwners(req, want)
	if !ok {
		return nil, errors.New("fleet: no workers reachable")
	}
	if len(owners) == 1 {
		res, err := f.dispatchOne(ctx, owners[0], req, body)
		if err == nil {
			f.forgetOwner(req.ScanID)
		}
		return res, err
	}
	return f.dispatchHedged(ctx, owners, req, body)
}

// dispatchOne runs one dispatch branch to owner with severing wired in:
// the health monitor declaring owner dead cancels dctx, which this
// function translates into a plain retryable error (never a
// context.Canceled the jobs layer would mistake for a client cancel).
func (f *Fleet) dispatchOne(ctx context.Context, owner string, req *server.DispatchRequest, body []byte) (*server.DispatchResult, error) {
	dctx, cancel := context.WithCancel(ctx)
	f.register(owner, req.ScanID, cancel)
	defer func() {
		cancel()
		f.unregister(owner, req.ScanID)
	}()

	start := f.rec.Now()
	res, err := f.dispatchTo(dctx, owner, body)
	f.rec.Observe("fleet_dispatch_seconds", f.rec.Now().Sub(start).Seconds())
	if err != nil {
		return nil, severed(ctx, dctx, err, "dispatch to "+owner)
	}
	f.ReportSuccess(owner)
	return res, nil
}

// severed disambiguates whose cancellation aborted an exchange with a
// worker that ran under dctx, the child of the scan's ctx the health
// monitor cancels when it declares the worker dead. A cancellation
// must never leak out of the fleet layer unless the scan's own context
// died, or the jobs lifecycle would misread a severed exchange as a
// client cancel or a shutdown.
func severed(ctx, dctx context.Context, err error, exchange string) error {
	if ctx.Err() != nil {
		// The scan itself was cancelled, the coordinator is draining,
		// or (inside a hedge) the other branch won: propagate so the
		// caller classifies it (the poll loop already forwarded a
		// best-effort cancel to the worker when it had a scan id).
		return ctx.Err()
	}
	if dctx.Err() != nil {
		// Severed by the health monitor: the worker is dead. The
		// per-scan heartbeat_lost event was appended when the monitor
		// cut the cord; return retryable so the next attempt hands the
		// scan to the next ring owner.
		return fmt.Errorf("fleet: %s severed: worker declared dead", exchange)
	}
	return err
}

// hedgeOutcome is one branch's answer inside a hedged dispatch.
type hedgeOutcome struct {
	owner string
	res   *server.DispatchResult
	err   error
}

// dispatchHedged races up to two dispatch branches: the primary starts
// immediately, the hedge to the next ring owner after HedgeDelay. The
// first successful branch wins and the other is cancelled; when the
// primary fails before the hedge timer fires, the hedge fires early
// rather than wasting the budgeted attempt. Only when every launched
// branch has failed does the attempt fail.
func (f *Fleet) dispatchHedged(ctx context.Context, owners []string, req *server.DispatchRequest, body []byte) (*server.DispatchResult, error) {
	branchCtx, cancelBranches := context.WithCancel(ctx)
	defer cancelBranches()

	results := make(chan hedgeOutcome, len(owners))
	launch := func(owner string) {
		go func() {
			res, err := f.dispatchOne(branchCtx, owner, req, body)
			results <- hedgeOutcome{owner: owner, res: res, err: err}
		}()
	}
	launch(owners[0])
	outstanding := 1
	hedgeLaunched := false

	fireHedge := func(why string) {
		hedgeLaunched = true
		f.rec.Counter("fleet_hedges_total").Inc()
		f.rec.Events().Append(obs.Event{
			Scan: req.ScanID, Type: EvHedgeFired,
			Attempt: req.Attempt, Detail: owners[1] + " (" + why + ")",
		})
		f.rec.Events().Append(obs.Event{
			Scan: req.ScanID, Type: EvDispatched,
			Attempt: req.Attempt, Detail: owners[1],
		})
		f.log.Info("fleet hedge fired",
			"scan_id", req.ScanID, "hedge_worker", owners[1], "reason", why)
		launch(owners[1])
		outstanding++
	}

	timer := time.NewTimer(f.cfg.HedgeDelay)
	defer timer.Stop()
	timerC := timer.C

	var firstErr error
	for outstanding > 0 {
		select {
		case <-timerC:
			timerC = nil
			fireHedge("hedge delay elapsed")
		case out := <-results:
			outstanding--
			if out.err == nil {
				// First settled result wins byte-for-byte; the loser's
				// branch context is cancelled on return. Record the win
				// only when the race was actually on.
				if hedgeLaunched {
					f.rec.Counter("fleet_hedge_wins_total").Inc()
					f.rec.Events().Append(obs.Event{
						Scan: req.ScanID, Type: EvHedgeWon,
						Attempt: req.Attempt, Detail: out.owner,
					})
					loser := owners[0]
					if out.owner == owners[0] {
						loser = owners[1]
					}
					f.rec.Events().Append(obs.Event{
						Scan: req.ScanID, Type: EvHedgeCancelled,
						Attempt: req.Attempt, Detail: loser,
					})
				}
				f.forgetOwner(req.ScanID)
				return out.res, nil
			}
			if ctx.Err() != nil {
				// The scan itself died (client cancel or drain), not a
				// branch: settle it, don't retry it.
				return nil, ctx.Err()
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if !hedgeLaunched && timerC != nil {
				// The primary failed before the hedge timer: spend the
				// hedge now instead of failing an attempt while a live
				// fallback owner is known.
				timerC = nil
				fireHedge("primary failed")
			}
		}
	}
	return nil, firstErr
}

// pickOwners routes req to up to want live ring owners of its routing
// key in clockwise preference order, recording handoff trace events
// when primary ownership moved since the scan's previous attempt.
// Events are appended before the dispatch happens so the timeline reads
// transferred → resubmitted → dispatched → outcome.
func (f *Fleet) pickOwners(req *server.DispatchRequest, want int) ([]string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	owners := f.ring.OwnersWhere(req.Key, want, func(m string) bool {
		return f.workers[m].state != StateDead
	})
	if len(owners) == 0 {
		return nil, false
	}
	owner := owners[0]
	if prev, had := f.lastOwner[req.ScanID]; had && prev != owner {
		f.rec.Counter("fleet_handoffs_total").Inc()
		f.rec.Events().Append(obs.Event{
			Scan: req.ScanID, Type: EvOwnershipTransferred,
			Attempt: req.Attempt, Detail: prev + " -> " + owner,
		})
		f.rec.Events().Append(obs.Event{
			Scan: req.ScanID, Type: EvResubmittedToPeer,
			Attempt: req.Attempt, Detail: owner,
		})
		f.log.Info("fleet scan handoff",
			"scan_id", req.ScanID, "from", prev, "to", owner, "attempt", req.Attempt)
	}
	if len(f.lastOwner) >= maxTrackedOwners {
		// Crude but bounded: ownership memory only matters for scans
		// mid-retry, which is a tiny working set.
		f.lastOwner = make(map[string]string)
	}
	f.lastOwner[req.ScanID] = owner
	f.rec.Events().Append(obs.Event{
		Scan: req.ScanID, Type: EvDispatched,
		Attempt: req.Attempt, Detail: owner,
	})
	return owners, true
}

// adopt looks for a replayed scan on the workers: if some worker still
// holds req.ScanID from a dispatch the previous coordinator process
// made (workers name their scans by the coordinator's ids), attach to
// that scan — poll it to settlement and take its result — instead of
// resubmitting the work. An unreachable worker reads as one that never
// saw the scan: the fresh dispatch that follows is safe either way,
// since a worker that holds the id joins it. The third return reports
// whether an adoption happened; false sends the caller down the normal
// dispatch path.
func (f *Fleet) adopt(ctx context.Context, req *server.DispatchRequest) (*server.DispatchResult, error, bool) {
	f.mu.Lock()
	candidates := make([]string, 0, len(f.workers))
	for _, addr := range f.ring.Members() {
		if w, ok := f.workers[addr]; ok && w.state != StateDead {
			candidates = append(candidates, addr)
		}
	}
	f.mu.Unlock()

	for _, addr := range candidates {
		qctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		view, err := f.fetchView(qctx, addr, addr+"/v1/scans/"+req.ScanID)
		cancel()
		if err != nil {
			continue
		}
		f.rec.Counter("fleet_adoptions_total").Inc()
		f.rec.Events().Append(obs.Event{
			Scan: req.ScanID, Type: EvAdopted, Attempt: req.Attempt,
			Detail: addr + " " + view.Status,
		})
		f.log.Info("fleet scan adopted",
			"scan_id", req.ScanID, "worker", addr, "state", view.Status)
		f.mu.Lock()
		f.lastOwner[req.ScanID] = addr
		f.mu.Unlock()

		res, err := f.attach(ctx, addr, view)
		if err == nil {
			f.ReportSuccess(addr)
			f.forgetOwner(req.ScanID)
		}
		return res, err, true
	}
	return nil, nil, false
}

// attach follows an adopted worker scan to settlement: long-poll it
// while it is unsettled (with severing registered, so the worker dying
// mid-adoption turns into a retryable error and a normal handoff) and
// map the settled state exactly like a fresh dispatch.
func (f *Fleet) attach(ctx context.Context, owner string, view workerScanView) (*server.DispatchResult, error) {
	dctx, cancel := context.WithCancel(ctx)
	f.register(owner, view.ID, cancel)
	defer func() {
		cancel()
		f.unregister(owner, view.ID)
	}()
	if err := f.pollUntilSettled(dctx, owner, &view); err != nil {
		return nil, severed(ctx, dctx, err, "adoption from "+owner)
	}
	return settledView(owner, view)
}

func (f *Fleet) register(owner, scanID string, cancel context.CancelFunc) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if w, ok := f.workers[owner]; ok {
		w.dispatches[scanID] = cancel
	}
}

func (f *Fleet) unregister(owner, scanID string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if w, ok := f.workers[owner]; ok {
		delete(w.dispatches, scanID)
	}
}

func (f *Fleet) forgetOwner(scanID string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.lastOwner, scanID)
}

// dispatchTo submits a dispatch frame to owner and waits for the
// worker's scan to settle, long-polling when the worker queued it
// asynchronously.
func (f *Fleet) dispatchTo(ctx context.Context, owner string, body []byte) (*server.DispatchResult, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/internal/v1/scan", bytes.NewReader(body))
	if err != nil {
		return nil, jobs.Terminal(err)
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	resp, err := f.client.Do(hreq)
	if err != nil {
		// A cancelled dispatch (hedge loser, severed owner, client
		// cancel) says nothing about the worker's health — only count
		// a liveness miss when the transport itself failed.
		if ctx.Err() == nil {
			f.ReportFailure(owner, err)
		}
		return nil, fmt.Errorf("fleet: dispatch to %s: %w", owner, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		// 200: served from the worker's cache shard, result inline.
		// 202: accepted; poll the worker's scan until it settles.
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		// A malformed submission, or one past the worker's upload cap:
		// no worker will take it on a retry.
		return nil, jobs.Terminal(fmt.Errorf("fleet: worker %s rejected scan: %s", owner, readError(resp.Body)))
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		// The worker is alive but saturated or draining; retry
		// without counting a liveness miss.
		return nil, fmt.Errorf("fleet: worker %s busy: HTTP %d", owner, resp.StatusCode)
	default:
		return nil, fmt.Errorf("fleet: worker %s returned HTTP %d: %s", owner, resp.StatusCode, readError(resp.Body))
	}
	var view workerScanView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, fmt.Errorf("fleet: decode worker response: %w", err)
	}
	if err := f.pollUntilSettled(ctx, owner, &view); err != nil {
		return nil, err
	}
	return settledView(owner, view)
}

// settledView maps a settled worker scan view to the attempt's outcome:
// a done scan's result, or a plain retryable error. The worker runs
// with a single-attempt budget; the coordinator's own retry lifecycle
// decides whether a failure retries, hands off, or quarantines.
func settledView(owner string, view workerScanView) (*server.DispatchResult, error) {
	switch view.Status {
	case "done":
		return &server.DispatchResult{Worker: owner, Result: view.Result, Inc: view.Inc}, nil
	case "quarantined", "cancelled":
		msg := view.Error
		if msg == "" {
			msg = "scan " + view.Status + " on worker"
		}
		return nil, fmt.Errorf("fleet: worker %s: %s", owner, msg)
	default:
		return nil, fmt.Errorf("fleet: worker %s settled scan in unexpected state %q", owner, view.Status)
	}
}

// pollUntilSettled long-polls owner's scan view (GET ?wait=) while it
// reads queued or running. The worker holds each request until the
// scan settles or its wait cap passes, so the coordinator learns of a
// settle one round trip after it and never sleeps between requests.
// A context that dies while a request is open (client cancel, hedge
// loser, severed owner) forwards the cancel to the worker scan.
func (f *Fleet) pollUntilSettled(ctx context.Context, owner string, view *workerScanView) error {
	url := owner + "/v1/scans/" + view.ID + "?wait=" + server.MaxScanWait.String()
	for view.Status == "queued" || view.Status == "running" {
		next, err := f.fetchView(ctx, owner, url)
		if err != nil {
			if ctx.Err() != nil {
				f.forwardCancel(owner, view.ID)
				return ctx.Err()
			}
			return err
		}
		*view = next
	}
	return nil
}

// fetchView performs one GET of a worker scan view.
func (f *Fleet) fetchView(ctx context.Context, owner, url string) (workerScanView, error) {
	var view workerScanView
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return view, err
	}
	resp, err := f.client.Do(hreq)
	if err != nil {
		if ctx.Err() == nil {
			f.ReportFailure(owner, err)
		}
		return view, fmt.Errorf("fleet: poll %s: %w", owner, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return view, fmt.Errorf("fleet: poll %s: HTTP %d", owner, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return view, fmt.Errorf("fleet: decode poll response: %w", err)
	}
	return view, nil
}

// forwardCancel best-effort cancels a worker-side scan after the
// coordinator-side scan was cancelled, so the worker stops burning its
// pool on work nobody wants. Failure is ignored: the worker's own
// budgets bound the orphan. It deliberately uses a fresh context — the
// caller's is the one that just died.
func (f *Fleet) forwardCancel(owner, workerScanID string) {
	if workerScanID == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/v1/scans/"+workerScanID+"/cancel", nil)
	if err != nil {
		return
	}
	if resp, err := f.client.Do(hreq); err == nil {
		resp.Body.Close()
	}
}

// readError extracts the "error" field of an error envelope (or the
// raw body when it is not one).
func readError(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 4096))
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &env) == nil && env.Error != "" {
		return env.Error
	}
	return string(b)
}
