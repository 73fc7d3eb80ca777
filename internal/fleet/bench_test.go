package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"
)

// TestBenchFleetHedging regenerates BENCH_fleet.json: submit-to-settle
// latency percentiles against a fleet where one of two workers is
// deliberately slow, with hedging off vs on. Gated behind
// BENCH_FLEET_OUT so the ordinary test run stays fast:
//
//	BENCH_FLEET_OUT=$PWD/BENCH_fleet.json go test -run TestBenchFleetHedging ./internal/fleet/
//
// The slow worker delays dispatch intake by slowBy; without hedging
// every scan whose digest the ring routes to it eats that delay, so
// the p99 tracks slowBy. With -hedge-delay hedgeAt the coordinator
// duplicates those dispatches to the fast worker after hedgeAt and the
// p99 collapses toward hedgeAt + scan time.
func TestBenchFleetHedging(t *testing.T) {
	out := os.Getenv("BENCH_FLEET_OUT")
	if out == "" {
		t.Skip("set BENCH_FLEET_OUT=/path/to/BENCH_fleet.json to regenerate the hedging benchmark")
	}
	const (
		scans   = 40
		slowBy  = 300 * time.Millisecond
		hedgeAt = 50 * time.Millisecond
	)

	measure := func(hedgeDelay time.Duration) []time.Duration {
		fast, _ := newFullWorker(t, nil)
		slow, _ := newFullWorker(t, slowDispatch(slowBy))
		coord, _ := newHedgeCoordinator(t, []string{fast.URL, slow.URL}, hedgeDelay)
		lat := make([]time.Duration, 0, scans)
		for i := 0; i < scans; i++ {
			php := fmt.Sprintf("%s// bench hedge=%s scan=%d\n", vulnerablePHP, hedgeDelay, i)
			start := time.Now()
			sc := submitScan(t, coord.URL, fmt.Sprintf("bench-%d", i), php)
			got := waitSettled(t, coord.URL, sc.ID)
			if got.Status != "done" {
				t.Fatalf("bench scan %d settled %s (%s), want done", i, got.Status, got.Error)
			}
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		return lat
	}
	pct := func(lat []time.Duration, p float64) float64 {
		idx := int(p*float64(len(lat))) - 1
		if idx < 0 {
			idx = 0
		}
		return float64(lat[idx]) / float64(time.Millisecond)
	}

	off := measure(0)
	on := measure(hedgeAt)

	type stats struct {
		P50Ms float64 `json:"p50_ms"`
		P99Ms float64 `json:"p99_ms"`
	}
	doc := struct {
		NumCPU      int    `json:"num_cpu"`
		GOMAXPROCS  int    `json:"gomaxprocs"`
		Scans       int    `json:"scans"`
		SlowWorkers string `json:"slow_worker_delay"`
		HedgeDelay  string `json:"hedge_delay"`
		HedgeOff    stats  `json:"hedge_off"`
		HedgeOn     stats  `json:"hedge_on"`
	}{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Scans:       scans,
		SlowWorkers: slowBy.String(),
		HedgeDelay:  hedgeAt.String(),
		HedgeOff:    stats{P50Ms: pct(off, 0.50), P99Ms: pct(off, 0.99)},
		HedgeOn:     stats{P50Ms: pct(on, 0.50), P99Ms: pct(on, 0.99)},
	}
	if doc.HedgeOn.P99Ms >= doc.HedgeOff.P99Ms {
		t.Errorf("hedging did not improve p99: off=%.1fms on=%.1fms", doc.HedgeOff.P99Ms, doc.HedgeOn.P99Ms)
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: p99 %.1fms -> %.1fms", out, doc.HedgeOff.P99Ms, doc.HedgeOn.P99Ms)
}
