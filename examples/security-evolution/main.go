// Security evolution: track a plugin's vulnerabilities across its 2012
// and 2014 releases — the paper's §V.D inertia analysis and its §VI
// future work ("study the evolution of plugin security and plugin
// updates over time by enabling historic data") as a library feature.
//
// Run with:
//
//	go run ./examples/security-evolution [plugin-name]
package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/analyzer"
	"repro/internal/corpus"
	"repro/internal/evolution"
	"repro/internal/rulepack"
	"repro/internal/taint"
)

func main() {
	want := "wp-photo-album-plus"
	if len(os.Args) > 1 {
		want = os.Args[1]
	}

	c2012, c2014 := corpus.MustGenerate()
	old, now := c2012.Target(want), c2014.Target(want)
	if old == nil || now == nil {
		fmt.Fprintf(os.Stderr, "unknown plugin %q\n", want)
		os.Exit(2)
	}

	engine := taint.New(rulepack.MustCompile("wordpress"), taint.DefaultOptions())
	oldRes := mustAnalyze(engine, old)
	newRes := mustAnalyze(engine, now)

	history, err := evolution.Track(
		[]string{"2012", "2014"},
		[]*analyzer.Result{oldRes, newRes},
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(history.Summary())

	step := history.Steps[0]
	fmt.Printf("\npersisting share: %.0f%% of the %s findings were already\n",
		step.PersistShare()*100, step.NewVersion)
	fmt.Printf("reported against the %s release (the paper's §V.D inertia:\n",
		step.OldVersion)
	fmt.Println("42% across the whole corpus, one year after disclosure).")

	fmt.Println("\npersisting vulnerabilities (still unfixed after disclosure):")
	for _, c := range step.Changes {
		if c.Status == evolution.Persisting {
			fmt.Println("  " + c.Finding.String())
		}
	}
}

// mustAnalyze runs the engine or exits.
func mustAnalyze(engine *taint.Engine, target *analyzer.Target) *analyzer.Result {
	res, err := engine.AnalyzeContext(context.Background(), target, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return res
}
