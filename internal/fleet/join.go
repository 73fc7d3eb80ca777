// Worker auto-registration. Instead of a static -fleet-workers list,
// each worker announces itself to the coordinator: POST
// /internal/v1/join with the address it serves on. The coordinator
// admits the member into the ring (Fleet.AddWorker), journals it so
// the membership survives a coordinator restart, and from then on the
// heartbeat monitor owns its liveness. Announcements retry with the
// jobs backoff until the coordinator is reachable and then repeat on a
// slow cadence — re-announcement is idempotent, and it heals the
// membership of a coordinator restarted without its journal.

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/jobs"
)

// AnnounceInterval is the steady-state re-announcement cadence after
// the first successful join.
const AnnounceInterval = 15 * time.Second

// maxJoinBody caps a join request body; the real one is a few dozen
// bytes.
const maxJoinBody = 4 << 10

// joinRequest is the worker→coordinator registration body.
type joinRequest struct {
	Advertise string `json:"advertise"`
}

// NewCoordinatorHandler wraps the coordinator's API with the
// fleet-internal join endpoint:
//
//	POST /internal/v1/join  register an announcing worker; idempotent.
//	                        400 when advertise is not a CanonicalURL
//	                        base URL (nothing is admitted or journaled)
//
// Everything else falls through to api.
func NewCoordinatorHandler(api http.Handler, fl *Fleet) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /internal/v1/join", func(w http.ResponseWriter, r *http.Request) {
		var jr joinRequest
		added := false
		err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJoinBody)).Decode(&jr)
		if err == nil {
			added, err = fl.AddWorker(jr.Advertise)
		}
		w.Header().Set("Content-Type", "application/json")
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		fl.mu.Lock()
		members := fl.ring.Members()
		fl.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{
			"joined":  added,
			"members": members,
		})
	})
	mux.Handle("/", api)
	return mux
}

// Announce registers advertise with the coordinator and keeps the
// registration fresh. It blocks: retries with the jittered jobs
// backoff until the first success (a worker that boots before its
// coordinator just keeps knocking), then re-announces every
// AnnounceInterval until ctx is cancelled. Run it on its own
// goroutine.
func Announce(ctx context.Context, client *http.Client, coordinator, advertise string, policy jobs.RetryPolicy, log *slog.Logger) {
	if client == nil {
		client = &http.Client{}
	}
	if log == nil {
		log = slog.Default()
	}
	log = log.With("component", "fleet_announce")
	attempt := 0
	for {
		err := announceOnce(ctx, client, coordinator, advertise)
		if err == nil {
			if attempt > 0 {
				log.Info("announced to coordinator", "coordinator", coordinator, "advertise", advertise)
			}
			attempt = 0
			select {
			case <-ctx.Done():
				return
			case <-time.After(AnnounceInterval):
			}
			continue
		}
		attempt++
		backoff := policy.Backoff(attempt)
		log.Warn("announce failed, retrying",
			"coordinator", coordinator, "error", err.Error(),
			"attempt", attempt, "backoff_ms", backoff.Milliseconds())
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
	}
}

// announceOnce performs one join round-trip.
func announceOnce(ctx context.Context, client *http.Client, coordinator, advertise string) error {
	body, _ := json.Marshal(joinRequest{Advertise: advertise})
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost,
		coordinator+"/internal/v1/join", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errWorkerStatus(resp.StatusCode)
	}
	return nil
}
