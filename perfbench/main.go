// Command perfbench is the repository's benchmark. It drives the phpSAFE
// engine and the phpsafed service stack in-process, checks every output,
// and prints the end-to-end metrics (-trace 0) or the per-layer metrics
// of a traced run (-trace 1). See README.md for the workloads and what
// each metric measures; run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload service-history --seed 7 --seconds 20 --trace 0
//
// The last line of standard output is the result object; the line before
// it carries the run's provenance and the supporting detail (sample
// counts behind each percentile, error rate, per-pass counts).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runner is one assembled workload, ready to measure.
type runner interface {
	// measure drives the workload's op stream for at least d and checks
	// every output.
	measure(d time.Duration) (*phase, error)
	// close stops everything the runner started and waits for it.
	close()
}

// workloads maps a workload name to its set-up, which builds the
// program's stack over the generated inputs and warms it up. workdir is
// a scratch directory the runner may write into.
var workloads = map[string]func(in *inputs, traced bool, workdir string) (runner, error){
	"corpus-cold":     newCold,
	"service-history": newStandaloneService,
	"service-fleet":   newFleetService,
}

// opRecord is one measured op: a plugin scan in corpus-cold; submit →
// settled → report fetched in the service workloads.
type opRecord struct {
	step         int // history step (stepOld...stepHit); -1 in corpus-cold
	pass, plugin int
	format       string
	lines        int
	ms           float64
	submitMS     float64
	fetchMS      float64
	digest       [sha256.Size]byte // of the fetched report
	fail         string            // why the op failed; empty when it succeeded
}

// phase is the outcome of one measured window.
type phase struct {
	ops     []opRecord
	elapsed time.Duration
	// passSeconds is each pass's wall time.
	passSeconds []float64
	rssMB       float64
	layers      map[string]float64 // traced runs only
	detail      map[string]any
	problems    []string // failures not tied to a single op
}

func newPhase() *phase {
	return &phase{layers: map[string]float64{}, detail: map[string]any{}}
}

// failed counts the ops that failed.
func (ph *phase) failed() int {
	n := 0
	for _, op := range ph.ops {
		if op.fail != "" {
			n++
		}
	}
	return n
}

// latencies returns the op latencies of the ops whose step satisfies keep.
func (ph *phase) latencies(keep func(step int) bool) []float64 {
	var xs []float64
	for _, op := range ph.ops {
		if keep(op.step) {
			xs = append(xs, op.ms)
		}
	}
	return xs
}

// passRate is the median over passes of a pass's Σ f(op) per second.
// Every pass does the same work, so the median pass shows the steady
// rate and discounts passes slowed by something outside the program.
func (ph *phase) passRate(f func(opRecord) float64) float64 {
	sums := make([]float64, len(ph.passSeconds))
	for _, op := range ph.ops {
		sums[op.pass] += f(op)
	}
	for i := range sums {
		sums[i] = ratio(sums[i], ph.passSeconds[i])
	}
	return percentile(sums, 0.5)
}

// opsPerS is the median pass's ops per second.
func (ph *phase) opsPerS() float64 { return ph.passRate(func(opRecord) float64 { return 1 }) }

// klocPerS is the median pass's source lines scanned per second, in
// thousands.
func (ph *phase) klocPerS() float64 {
	return ph.passRate(func(op opRecord) float64 { return float64(op.lines) / 1e3 })
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRuns is how many times an untraced run sets the workload up; the
// median is setup_s.
const setupRuns = 3

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: corpus-cold, service-history or service-fleet")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 20, "measured time per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: a traced run's per-layer metrics")
	workdir := flag.String("workdir", os.TempDir(), "scratch directory for journals")
	commit := flag.String("commit", "unknown", "commit the program was built from, for the record")
	source := flag.String("source", "", "repository root whose sources are digested into the record")
	flag.Parse()

	setup, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	detail := map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"env": map[string]any{
			"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(), "commit": *commit, "source_digest": sourceDigest(*source),
		},
	}
	measure := func(traced bool, d time.Duration, setups int) (*phase, []float64, error) {
		var setupS []float64
		var r runner
		for i := 0; i < setups; i++ {
			if r != nil {
				r.close()
			}
			start := time.Now()
			in, err := newInputs(*seed)
			if err == nil {
				r, err = setup(in, traced, *workdir)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("set-up: %w", err)
			}
			setupS = append(setupS, time.Since(start).Seconds())
		}
		defer r.close()
		ph, err := r.measure(d)
		return ph, setupS, err
	}

	d := time.Duration(*seconds) * time.Second
	res := result{Metrics: map[string]metric{}}
	var phases []*phase
	if *trace == 0 {
		ph, setupS, err := measure(false, d, setupRuns)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		phases = append(phases, ph)
		endToEnd(res.Metrics, ph, percentile(setupS, 0.5), detail)
		detail["setup_runs_s"] = setupS
	} else {
		// The same stream twice, untraced then traced, half the time each:
		// the traced half gives the layer rows, the pair the overhead.
		plain, _, err := measure(false, d/2, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		traced, _, err := measure(true, d/2, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		phases = append(phases, plain, traced)
		traced.layers["obs.tracing_overhead_pct"] = 100 * (1 - ratio(traced.klocPerS(), plain.klocPerS()))
		for _, lm := range layerMetrics {
			res.Metrics[lm.name] = metric{traced.layers[lm.name], lm.unit}
		}
		detail["untraced_kloc_per_s"] = plain.klocPerS()
		detail["traced_kloc_per_s"] = traced.klocPerS()
	}

	var problems, failures []string
	for i, ph := range phases {
		res.Attempted += len(ph.ops)
		res.Failed += ph.failed()
		problems = append(problems, ph.problems...)
		for _, op := range ph.ops {
			if op.fail != "" && len(failures) < 5 {
				failures = append(failures, op.fail)
			}
		}
		for k, v := range ph.detail {
			detail[fmt.Sprintf("phase%d.%s", i, k)] = v
		}
		detail[fmt.Sprintf("phase%d.pass_s", i)] = ph.passSeconds
	}
	res.Correct = res.Failed == 0 && len(problems) == 0 && res.Attempted > 0
	detail["error_rate"] = ratio(float64(res.Failed), float64(res.Attempted))
	detail["failures"] = failures
	detail["problems"] = problems

	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"perfbench": detail}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := out.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd fills the end-to-end metrics of an untraced phase and records
// the sample counts behind each percentile.
func endToEnd(m map[string]metric, ph *phase, setupS float64, detail map[string]any) {
	all := ph.latencies(func(int) bool { return true })
	q, p99, beyond := tailPercentile(all)
	m["ops_per_s"] = metric{ph.opsPerS(), "1/s"}
	m["kloc_per_s"] = metric{ph.klocPerS(), "kloc/s"}
	m["op_p50_ms"] = metric{percentile(all, 0.5), "ms"}
	m["op_p99_ms"] = metric{p99, "ms"}
	m["setup_s"] = metric{setupS, "s"}
	m["peak_rss_mb"] = metric{ph.rssMB, "MB"}
	detail["percentiles"] = map[string]any{
		"op_p50_ms": map[string]any{"quantile": 0.5, "samples": len(all)},
		"op_p99_ms": map[string]any{"quantile": q, "samples": len(all), "beyond": beyond},
	}
	if ph.ops[0].step >= 0 {
		hits := ph.latencies(func(s int) bool { return s == stepHit })
		rescans := ph.latencies(func(s int) bool { return s == stepRescan })
		detail["hit_p50_ms"] = map[string]any{"value": percentile(hits, 0.5), "samples": len(hits)}
		detail["rescan_p50_ms"] = map[string]any{"value": percentile(rescans, 0.5), "samples": len(rescans)}
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sourceDigest fingerprints the program's sources (every .go file and
// go.mod under root, outside the benchmark itself), standing in for the
// commit id when the checkout is not a git repository.
func sourceDigest(root string) string {
	if root == "" {
		return "unknown"
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "perfbench" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") && rel != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
