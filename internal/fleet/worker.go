// Worker-side surface. A fleet worker is a complete phpsafed server —
// jobs pool, analyzer stack, scancache shard, incremental store,
// flight recorder, scan journal — minus retry (MaxAttempts is forced to
// 1 by the caller so the coordinator's budget is the only one). The
// Worker type adds the fleet-internal endpoints in front of it:
//
//	POST /internal/v1/scan      accept a dispatched scan (a dispatch
//	                            frame: header line, then raw file
//	                            bytes; see frame.go)
//	GET  /internal/v1/heartbeat liveness + load for the monitor
//
// A dispatch is accepted under the coordinator's scan id
// (server.SubmitSpec.ID), so the worker's scan registry and scan
// journal are keyed by the ids the coordinator knows. A re-dispatch of
// a scan the worker holds joins it while it runs and is answered from
// it once done. A journaled worker recovers from a crash exactly as a
// standalone daemon does, through server.Replay: finished scans are
// rehydrated and unsettled ones resubmitted, under the same ids.
//
// Everything else falls through to the standard API. The coordinator
// learns a dispatched scan's outcome there with a long-poll,
// GET /v1/scans/{id}?wait=, which the worker answers as soon as the
// scan settles, and a restarted coordinator adopts a scan still on a
// worker by asking GET /v1/scans/{id}. The same API makes a worker
// individually debuggable (trace, metrics, /debug/events).

package fleet

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
)

// WorkerConfig shapes a fleet Worker.
type WorkerConfig struct {
	// Advertise is the address this worker reports in heartbeats and
	// announces to the coordinator.
	Advertise string
	// Recorder and Logger are not read: the worker's metrics and logs
	// are those of the server stack it is bound to.
	Recorder *obs.Recorder
	Logger   *slog.Logger
}

// Worker is the fleet-facing layer of a worker daemon. Create with
// NewWorker, Bind the built server and pool, and serve Handler.
type Worker struct {
	cfg  WorkerConfig
	api  *server.Server
	pool *jobs.Pool
}

// NewWorker builds the fleet layer of a worker daemon.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg}
}

// Bind attaches the worker's server stack. Call before Handler.
func (wk *Worker) Bind(api *server.Server, pool *jobs.Pool) {
	wk.api = api
	wk.pool = pool
}

// OnSettle does nothing. It has the server.Config.OnSettle shape for
// callers that still wire it; a worker needs no settle hook.
func (wk *Worker) OnSettle(scanID, state string) {}

// Handler returns the worker's HTTP surface: the fleet-internal
// endpoints in front of the full standard API.
func (wk *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /internal/v1/scan", wk.handleDispatch)
	mux.HandleFunc("GET /internal/v1/heartbeat", wk.handleHeartbeat)
	mux.Handle("/", wk.api)
	return mux
}

// handleDispatch accepts one coordinator dispatch: decode the frame,
// then the standard acceptance path under the coordinator's scan id
// (which hashes the files and journals the acceptance). The frame's
// files may hold up to the bound daemon's upload limit, the limit
// intake enforces on extracted content, and its header as much again:
// 413 past that, 400 for a malformed frame, nothing journaled either
// way. A coordinator with the same limit never sends a frame past it.
func (wk *Worker) handleDispatch(w http.ResponseWriter, r *http.Request) {
	limit := wk.api.MaxUploadBytes()
	req, err := decodeDispatch(http.MaxBytesReader(w, r.Body, 2*limit), limit)
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		return
	}
	wk.api.Submit(w, server.SubmitSpec{
		ID: req.ScanID, Name: req.Name, Tool: req.Tool, Profile: req.Profile,
		Target: req.Target, Opts: req.Opts,
	})
}

// handleHeartbeat reports liveness and load for the coordinator's
// monitor. Load never moves ring ownership; the coordinator only
// reports it on /readyz.
func (wk *Worker) handleHeartbeat(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(heartbeatPayload{
		Advertise:  wk.cfg.Advertise,
		Inflight:   wk.pool.InFlight(),
		QueueDepth: wk.pool.QueueDepth(),
		Workers:    wk.pool.Workers(),
	})
}
