package eval

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/analyzer"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/pixy"
	"repro/internal/rips"
	"repro/internal/rulepack"
	"repro/internal/taint"
)

// Tools returns the paper's three tools in presentation order:
// phpSAFE with its out-of-the-box WordPress configuration (the builtin
// wordpress pack, §III.A), RIPS with its generic-PHP knowledge (the
// generic pack), and Pixy frozen in 2007. The recorder is threaded into
// every engine, so a corpus sweep records lex/parse/model/taint stage
// timings and engine counters; nil yields uninstrumented engines.
func Tools(rec *obs.Recorder) []analyzer.Analyzer {
	return []analyzer.Analyzer{
		taint.New(rulepack.MustCompile("wordpress"), taint.DefaultOptions()).WithRecorder(rec),
		rips.New(rulepack.MustCompile("generic")).WithRecorder(rec),
		pixy.New().WithRecorder(rec),
	}
}

// ToolOptions tunes BuildTool's engine construction. The zero value is
// the default configuration: OOP analysis on, uncalled-function
// analysis on, no instrumentation.
type ToolOptions struct {
	// NoOOP disables object-oriented analysis (paper §III.E).
	NoOOP bool
	// NoUncalled skips functions never called from plugin code.
	NoUncalled bool
	// Recorder, when non-nil, instruments the engine.
	Recorder *obs.Recorder
	// ExtraPacks are rule packs loaded from files, registered on top of
	// the builtin packs before the profile spec is resolved.
	ExtraPacks []*rulepack.Pack
}

// BuildTool constructs one engine by name ("phpsafe", "rips" or
// "pixy") over a rule-pack spec: a comma-separated list of pack names
// ("wordpress", "generic", "wordpress,security-extended", ...) resolved
// against the builtin packs plus opts.ExtraPacks. The phpsafe CLI and
// the phpsafed daemon both construct engines through this function, so
// the two binaries cannot drift in how a tool/pack pair maps onto an
// analyzer.
func BuildTool(name, profile string, opts ToolOptions) (analyzer.Analyzer, error) {
	reg := rulepack.NewRegistry()
	for _, p := range opts.ExtraPacks {
		reg.Register(p)
	}
	names := rulepack.SplitSpec(profile)
	if len(names) == 0 {
		return nil, fmt.Errorf("empty rule-pack spec (known packs: %s)",
			strings.Join(reg.Names(), ", "))
	}
	cfg, err := reg.Compile(names...)
	if err != nil {
		return nil, err
	}
	switch name {
	case "phpsafe":
		o := taint.DefaultOptions()
		o.OOP = !opts.NoOOP
		o.AnalyzeUncalled = !opts.NoUncalled
		return taint.New(cfg, o).WithRecorder(opts.Recorder), nil
	case "rips":
		return rips.New(cfg).WithRecorder(opts.Recorder), nil
	case "pixy":
		return pixy.New().WithRecorder(opts.Recorder), nil
	default:
		return nil, fmt.Errorf("unknown tool %q", name)
	}
}

// EvalOptions tunes a full-corpus evaluation.
type EvalOptions struct {
	// Workers sizes the per-tool worker pool; 0 or 1 is the serial
	// Table III mode.
	Workers int
	// RecorderFor, when non-nil, supplies one recorder per tool (keyed
	// by display name) so per-tool metrics stay separable. The recorder
	// is threaded both into the engine (stage spans, engine counters)
	// and the harness (per-plugin spans, queue wait).
	RecorderFor func(tool string) *obs.Recorder
	// Progress, when non-nil, is called after every plugin of every
	// tool run.
	Progress func(ev Progress)
	// Budgets carries per-plugin resource budgets into every engine;
	// nil means defaults.
	Budgets *analyzer.ScanOptions
}

// EvaluateCorpusContext runs the default tools over a corpus under ctx
// and matches the results against its labels; cancelling ctx aborts
// the sweep mid-tool with the wrapped context error.
func EvaluateCorpusContext(ctx context.Context, c *corpus.Corpus, opts EvalOptions) (*Evaluation, error) {
	runs := make([]*ToolRun, 0, 3)
	for i, tool := range Tools(nil) {
		var rec *obs.Recorder
		if opts.RecorderFor != nil {
			rec = opts.RecorderFor(tool.Name())
		}
		if rec != nil {
			tool = Tools(rec)[i]
		}
		run, err := Run(ctx, tool, c, Options{
			Workers:  opts.Workers,
			Recorder: rec,
			Progress: opts.Progress,
			Budgets:  opts.Budgets,
		})
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return Evaluate(c, runs), nil
}
