// Command phpsafe scans a PHP plugin directory for XSS and SQL-Injection
// vulnerabilities — the command-line equivalent of the phpSAFE web
// interface described in the paper (DSN 2015, §III).
//
// Usage:
//
//	phpsafe [flags] <plugin-dir|file.php>
//	phpsafe -diff [flags] <old-dir> <new-dir>
//	phpsafe rules lint [FILE...]
//
//	-profile SPEC                rule-pack spec: comma-separated pack
//	                             names (default wordpress)
//	-packs LIST                  comma-separated rule packs to scan with,
//	                             overriding -profile (builtin packs:
//	                             generic, wordpress, drupal, joomla,
//	                             security-extended)
//	-rule-pack FILE              load a custom rule pack from a JSON file
//	                             and append it to the pack spec
//	                             (repeatable)
//	-tool phpsafe|rips|pixy      analysis engine (default phpsafe)
//	-no-oop                      disable object-oriented analysis (§III.E)
//	-no-uncalled                 skip functions never called by the plugin
//	-trace                       print full data-flow traces (§III.D)
//	-json                        machine-readable findings output
//	-html FILE                   also write an HTML report (the paper's
//	                             web-page output, §III)
//	-sarif FILE                  also write a SARIF 2.1.0 report for CI
//	-model                       print the model inventory instead of
//	                             scanning: functions (with the uncalled
//	                             ones marked), classes, include edges
//	-inc-cache DIR               incremental analysis: reuse per-file
//	                             artifacts from DIR when neither the file
//	                             nor anything in its dependency component
//	                             changed; prints the reuse ratio to stderr
//	                             (phpsafe engine only)
//	-diff                        compare two versions of a plugin: scan
//	                             both directories and classify every
//	                             vulnerability as fixed, persisting or
//	                             introduced (§V.D)
//	-metrics FILE                write scan metrics (counters, stage
//	                             histograms, span tree) after the scan;
//	                             "-" writes to stdout
//	-metrics-format json|prom    metrics exposition format (default json)
//	-pprof ADDR                  serve net/http/pprof and expvar on ADDR
//	                             (e.g. localhost:6060) for long scans
//	-deadline D                  wall-clock budget for the whole scan;
//	                             exceeding it truncates the scan (the
//	                             partial report is printed and labelled)
//	-max-depth N                 parser nesting budget per file; deeper
//	                             nesting degrades to a recorded parse
//	                             error (0 = default 512)
//	-max-steps N                 interpreter step budget for the whole
//	                             scan (0 = default 20M, -1 = unlimited)
//	-file-slice D                wall-clock budget per file; exceeding it
//	                             fails that file and the scan continues
//	-file-workers N              per-scan worker pool fanning per-file
//	                             lex/parse/analysis across cores
//	                             (0 = all cores, 1 = serial); output is
//	                             identical at any worker count
//	-version                     print the version and exit
//
// The "rules lint" subcommand validates rule-pack files (builtin packs
// when no files are given) and exits nonzero on the first invalid pack,
// so CI can gate custom packs before they reach a scanner.
//
// SIGINT cancels a running scan cleanly: the engine stops at its next
// checkpoint and whatever was analyzed so far is reported.
//
// Exit status is 0 when no vulnerabilities are found, 1 when findings
// exist, and 2 on usage or I/O errors.
package main

import (
	"context"
	"encoding/json"
	_ "expvar" // registers /debug/vars on the default mux
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"strings"

	"repro/internal/analyzer"
	"repro/internal/eval"
	"repro/internal/evolution"
	"repro/internal/incremental"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/rulepack"
	"repro/internal/taint"
	"repro/internal/version"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "rules" {
		os.Exit(runRules(os.Args[2:]))
	}
	os.Exit(run())
}

// run parses flags, loads the target and scans it.
func run() int {
	profile := flag.String("profile", "wordpress", "rule-pack spec: comma-separated pack names (wordpress, generic, drupal, ...)")
	packSpec := flag.String("packs", "", "comma-separated rule packs to scan with (overrides -profile)")
	var packFiles stringList
	flag.Var(&packFiles, "rule-pack", "load a rule pack from this JSON file and append it to the pack spec (repeatable)")
	toolName := flag.String("tool", "phpsafe", "engine: phpsafe, rips or pixy")
	noOOP := flag.Bool("no-oop", false, "disable object-oriented analysis")
	noUncalled := flag.Bool("no-uncalled", false, "skip functions not called from plugin code")
	trace := flag.Bool("trace", false, "print full data-flow traces")
	jsonOut := flag.Bool("json", false, "print findings as JSON")
	htmlOut := flag.String("html", "", "also write an HTML report to this file")
	sarifOut := flag.String("sarif", "", "also write a SARIF 2.1.0 report to this file")
	model := flag.Bool("model", false, "print the model inventory instead of scanning")
	incCache := flag.String("inc-cache", "", "incremental analysis: artifact cache directory (phpsafe engine only)")
	diff := flag.Bool("diff", false, "compare two plugin versions: phpsafe -diff <old-dir> <new-dir>")
	metricsOut := flag.String("metrics", "", "write scan metrics to this file after the scan (\"-\" for stdout)")
	metricsFormat := flag.String("metrics-format", "json", "metrics exposition format: json or prom")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar on this address during the scan")
	deadline := flag.Duration("deadline", 0, "wall-clock budget for the whole scan (0 = none)")
	maxDepth := flag.Int("max-depth", 0, "parser nesting budget per file (0 = default)")
	maxSteps := flag.Int64("max-steps", 0, "interpreter step budget for the scan (0 = default, -1 = unlimited)")
	fileSlice := flag.Duration("file-slice", 0, "wall-clock budget per file (0 = none)")
	fileWorkers := flag.Int("file-workers", 0, "per-scan worker pool for file lex/parse/analysis (0 = all cores, 1 = serial)")
	showVersion := flag.Bool("version", false, "print the version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String())
		return 0
	}

	wantArgs, usage := 1, "usage: phpsafe [flags] <plugin-dir|file.php>"
	if *diff {
		wantArgs, usage = 2, "usage: phpsafe -diff [flags] <old-dir> <new-dir>"
	}
	if flag.NArg() != wantArgs {
		fmt.Fprintln(os.Stderr, usage)
		flag.PrintDefaults()
		return 2
	}
	if *metricsFormat != "json" && *metricsFormat != "prom" {
		fmt.Fprintf(os.Stderr, "phpsafe: unknown -metrics-format %q (want json or prom)\n", *metricsFormat)
		return 2
	}

	if *pprofAddr != "" {
		// The profiling server runs for the scan's lifetime; pprof and
		// expvar handlers are registered by the blank imports.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "phpsafe: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof server on http://%s/debug/pprof\n", *pprofAddr)
	}

	// Instrumentation is enabled only when the metrics dump is
	// requested, so default scans keep the uninstrumented hot path.
	var rec *obs.Recorder
	if *metricsOut != "" {
		rec = obs.NewRecorder()
	}

	// The effective rule-pack spec: -packs overrides -profile, and every
	// -rule-pack file is loaded and appended on top of the spec.
	spec := *profile
	if *packSpec != "" {
		spec = *packSpec
	}
	var extra []*rulepack.Pack
	for _, path := range packFiles {
		p, err := rulepack.LoadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "phpsafe: %v\n", err)
			return 2
		}
		extra = append(extra, p)
		spec += "," + p.Name
	}

	tool, err := eval.BuildTool(*toolName, spec, eval.ToolOptions{
		NoOOP:      *noOOP,
		NoUncalled: *noUncalled,
		Recorder:   rec,
		ExtraPacks: extra,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "phpsafe: %v\n", err)
		return 2
	}

	// Scan budgets (nil = all defaults) and SIGINT-driven cancellation:
	// the engine observes both at its governor checkpoints.
	var opts *analyzer.ScanOptions
	if *deadline != 0 || *maxDepth != 0 || *maxSteps != 0 || *fileSlice != 0 || *fileWorkers != 0 {
		opts = &analyzer.ScanOptions{
			Deadline:      *deadline,
			MaxParseDepth: *maxDepth,
			MaxSteps:      *maxSteps,
			FileTimeSlice: *fileSlice,
			FileWorkers:   *fileWorkers,
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *diff {
		code := runDiff(ctx, tool, flag.Arg(0), flag.Arg(1), *jsonOut, opts)
		if *metricsOut != "" {
			if err := writeMetrics(*metricsOut, *metricsFormat, rec); err != nil {
				fmt.Fprintf(os.Stderr, "phpsafe: %v\n", err)
				return 2
			}
		}
		return code
	}

	target, err := analyzer.Load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "phpsafe: %v\n", err)
		return 2
	}
	if len(target.Files) == 0 {
		fmt.Fprintln(os.Stderr, "phpsafe: no .php files found")
		return 2
	}

	if *model {
		return printModel(tool, target)
	}

	scanner := tool
	if *incCache != "" {
		engine, ok := tool.(*taint.Engine)
		if !ok {
			fmt.Fprintln(os.Stderr, "phpsafe: -inc-cache requires -tool phpsafe")
			return 2
		}
		store, err := incremental.NewStore(*incCache, rec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "phpsafe: %v\n", err)
			return 2
		}
		// The fingerprint pins tool version and pack spec; the planner
		// folds the engine's own option set (including the compiled
		// rule-set digest) in on top.
		scanner = &incReporting{inc: incremental.New(engine, store,
			version.String()+"|"+spec, rec)}
	}

	res, err := scanner.AnalyzeContext(ctx, target, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phpsafe: %v\n", err)
		return 2
	}
	warnDegradations(res)

	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, *metricsFormat, rec); err != nil {
			fmt.Fprintf(os.Stderr, "phpsafe: %v\n", err)
			return 2
		}
	}

	if *htmlOut != "" {
		if err := os.WriteFile(*htmlOut, []byte(report.HTML(res)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "phpsafe: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "wrote HTML report to %s\n", *htmlOut)
	}
	if *sarifOut != "" {
		data, err := report.SARIF(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "phpsafe: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*sarifOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "phpsafe: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "wrote SARIF report to %s\n", *sarifOut)
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "phpsafe: %v\n", err)
			return 2
		}
	case *trace:
		fmt.Print(report.Findings(res))
	default:
		fmt.Printf("%s: %d finding(s) in %s (%d files, %d lines)\n",
			res.Tool, len(res.Findings), res.Target, res.FilesAnalyzed, res.LinesAnalyzed)
		for _, f := range res.Findings {
			fmt.Println("  " + f.String())
		}
		for _, failed := range res.FilesFailed {
			fmt.Printf("  warning: could not analyze %s\n", failed)
		}
	}
	if len(res.Findings) > 0 {
		return 1
	}
	return 0
}

// stringList collects a repeatable string flag.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }

func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// runRules handles the "rules" subcommand. "rules lint [FILE...]"
// validates the given pack files — plus the builtin packs when no files
// are given — and checks that every pack's extends chain resolves
// against the builtins and the other linted files. Exit status is 0
// when every pack is valid, 2 otherwise.
func runRules(args []string) int {
	if len(args) == 0 || args[0] != "lint" {
		fmt.Fprintln(os.Stderr, "usage: phpsafe rules lint [FILE...]")
		return 2
	}
	reg := rulepack.NewRegistry()
	failed := false
	var names []string
	if len(args) == 1 {
		// No files: lint the builtins themselves.
		for _, p := range rulepack.Builtins() {
			names = append(names, p.Name)
			fmt.Printf("ok  %-20s %3d rules (builtin)\n", p.Name, p.RuleCount())
		}
	}
	for _, path := range args[1:] {
		p, err := reg.RegisterFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s\n", err)
			failed = true
			continue
		}
		names = append(names, p.Name)
		fmt.Printf("ok  %-20s %3d rules (%s)\n", p.Name, p.RuleCount(), path)
	}
	// Resolution catches dangling or cyclic extends chains that per-file
	// validation cannot see.
	for _, name := range names {
		if _, err := reg.Resolve(name); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", name, err)
			failed = true
		}
	}
	if failed {
		return 2
	}
	return 0
}

// warnDegradations narrates a labelled partial result on stderr so a
// truncated or crash-isolated scan is never mistaken for a clean one.
func warnDegradations(res *analyzer.Result) {
	if res.Truncated {
		fmt.Fprintf(os.Stderr, "phpsafe: warning: scan truncated by budget: %s (partial report)\n",
			strings.Join(res.TruncatedBy, ", "))
	}
	for _, rf := range res.RobustnessFailures {
		fmt.Fprintf(os.Stderr, "phpsafe: warning: analysis of %s crashed and was isolated: %s\n",
			rf.File, rf.Reason)
	}
}

// incReporting runs the incremental analyzer and narrates its reuse to
// stderr, keeping stdout free for findings.
type incReporting struct {
	inc *incremental.Analyzer
}

func (w *incReporting) Name() string { return w.inc.Name() }

func (w *incReporting) AnalyzeContext(ctx context.Context, target *analyzer.Target, opts *analyzer.ScanOptions) (*analyzer.Result, error) {
	res, rep, err := w.inc.Analyze(ctx, target, opts)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr,
		"incremental: reused %d/%d files (%.0f%%), re-analyzed %d (%d invalidated by dependencies), ~%.2fs saved\n",
		rep.ReusedFiles, rep.TotalFiles, 100*rep.ReuseRatio,
		rep.AnalyzedFiles, rep.InvalidatedFiles, rep.TimeSavedSeconds)
	return res, nil
}

// runDiff scans two versions of a plugin and classifies every
// vulnerability as fixed, persisting or introduced (§V.D). Exit status
// follows the scan convention: 1 when the new version has findings
// (persisting or introduced), 0 when it is clean.
func runDiff(ctx context.Context, tool analyzer.Analyzer, oldDir, newDir string, jsonOut bool, opts *analyzer.ScanOptions) int {
	scan := func(dir string) (*analyzer.Result, int) {
		target, err := analyzer.Load(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "phpsafe: %v\n", err)
			return nil, 2
		}
		if len(target.Files) == 0 {
			fmt.Fprintf(os.Stderr, "phpsafe: no .php files found in %s\n", dir)
			return nil, 2
		}
		res, err := tool.AnalyzeContext(ctx, target, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "phpsafe: %v\n", err)
			return nil, 2
		}
		warnDegradations(res)
		return res, 0
	}
	oldRes, code := scan(oldDir)
	if code != 0 {
		return code
	}
	newRes, code := scan(newDir)
	if code != 0 {
		return code
	}

	rep := evolution.Compare(oldRes, newRes, oldDir, newDir)
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diffJSON(rep)); err != nil {
			fmt.Fprintf(os.Stderr, "phpsafe: %v\n", err)
			return 2
		}
	} else {
		fmt.Printf("%s: %s -> %s: %d fixed, %d persisting, %d introduced\n",
			rep.Plugin, oldDir, newDir,
			rep.Count(evolution.Fixed), rep.Count(evolution.Persisting),
			rep.Count(evolution.Introduced))
		for _, c := range rep.Changes {
			fmt.Printf("  %-10s %s\n", c.Status, c.Finding.String())
		}
	}
	if rep.Count(evolution.Persisting)+rep.Count(evolution.Introduced) > 0 {
		return 1
	}
	return 0
}

// diffJSON is the machine-readable shape of an evolution report.
func diffJSON(rep *evolution.Report) any {
	type change struct {
		Status  string           `json:"status"`
		Finding analyzer.Finding `json:"finding"`
	}
	changes := make([]change, 0, len(rep.Changes))
	for _, c := range rep.Changes {
		changes = append(changes, change{Status: c.Status.String(), Finding: c.Finding})
	}
	return struct {
		Plugin     string   `json:"plugin"`
		OldVersion string   `json:"old_version"`
		NewVersion string   `json:"new_version"`
		Fixed      int      `json:"fixed"`
		Persisting int      `json:"persisting"`
		Introduced int      `json:"introduced"`
		Changes    []change `json:"changes"`
	}{
		Plugin:     rep.Plugin,
		OldVersion: rep.OldVersion,
		NewVersion: rep.NewVersion,
		Fixed:      rep.Count(evolution.Fixed),
		Persisting: rep.Count(evolution.Persisting),
		Introduced: rep.Count(evolution.Introduced),
		Changes:    changes,
	}
}

// printModel prints the §III.D model inventory (phpSAFE engine only).
func printModel(tool analyzer.Analyzer, target *analyzer.Target) int {
	engine, ok := tool.(*taint.Engine)
	if !ok {
		fmt.Fprintln(os.Stderr, "phpsafe: -model requires -tool phpsafe")
		return 2
	}
	info, err := engine.Model(target)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phpsafe: %v\n", err)
		return 2
	}
	fmt.Printf("model of %s: %d functions, %d classes, %d include edges\n\n",
		target.Name, len(info.Functions), len(info.Classes), len(info.Includes))
	for _, f := range info.Functions {
		mark := " "
		if !f.Called {
			mark = "*" // analyzed by the uncalled pass (§III.B)
		}
		fmt.Printf("  func  %s %-32s %s:%d (%d params)\n", mark, f.Name, f.File, f.Line, f.Params)
	}
	for _, c := range info.Classes {
		parent := ""
		if c.Extends != "" {
			parent = " extends " + c.Extends
		}
		fmt.Printf("  class   %s%s  %s:%d (%d props)\n", c.Name, parent, c.File, c.Line, c.Props)
		for _, m := range c.Methods {
			mark := " "
			if !m.Called {
				mark = "*"
			}
			fmt.Printf("    method %s %-28s line %d\n", mark, m.Name, m.Line)
		}
	}
	for _, e := range info.Includes {
		fmt.Printf("  include %s -> %s\n", e.From, e.To)
	}
	for _, e := range info.ParseErrors {
		fmt.Printf("  parse-error %s\n", e)
	}
	fmt.Println("\n  * = not called from plugin code (hook surface, §III.B)")
	return 0
}

// writeMetrics dumps the recorder snapshot in the requested format.
func writeMetrics(path, format string, rec *obs.Recorder) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	snap := rec.Snapshot()
	var err error
	if format == "prom" {
		err = snap.WritePrometheus(out)
	} else {
		err = snap.WriteJSON(out)
	}
	if err == nil && path != "-" {
		fmt.Fprintf(os.Stderr, "wrote %s metrics to %s\n", format, path)
	}
	return err
}
