package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestMetricsMatchBenchmarkJSON checks that a run prints exactly the
// metrics BENCHMARK.json declares, with the declared units: every
// end-to-end metric untraced, every per-layer metric traced.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}

	ph := newPhase()
	ph.passSeconds = []float64{1}
	ph.elapsed = time.Second
	ph.ops = []opRecord{{step: stepOld, lines: 10, ms: 1}, {step: stepHit, lines: 10, ms: 2}}
	e2e := map[string]metric{}
	endToEnd(e2e, ph, 1, map[string]any{})
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("untraced run prints %d metrics, BENCHMARK.json declares %d", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s: printed %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
	}

	if len(layerMetrics) != len(spec.PerLayer) {
		t.Errorf("traced run prints %d metrics, BENCHMARK.json declares %d", len(layerMetrics), len(spec.PerLayer))
	}
	units := map[string]string{}
	for _, lm := range layerMetrics {
		units[lm.name] = lm.unit
	}
	for _, m := range spec.PerLayer {
		if units[m.Name] != m.Unit {
			t.Errorf("per-layer %s: printed unit %q, want %q", m.Name, units[m.Name], m.Unit)
		}
	}
}
