// WordPress plugin audit: generate one synthetic plugin from the corpus,
// audit it with all three analyzers, and summarize what each tool sees —
// a miniature of the paper's evaluation (DSN 2015, §IV-V) on a single
// plugin.
//
// Run with:
//
//	go run ./examples/wordpress-audit [plugin-name]
package main

import (
	"context"
	"fmt"
	"os"
	"sort"

	"repro/internal/analyzer"
	"repro/internal/corpus"
	"repro/internal/eval"
)

func main() {
	want := "mail-subscribe-list"
	if len(os.Args) > 1 {
		want = os.Args[1]
	}

	_, c2014 := corpus.MustGenerate()
	target := c2014.Target(want)
	if target == nil {
		fmt.Fprintf(os.Stderr, "unknown plugin %q; available:\n", want)
		for _, t := range c2014.Targets {
			fmt.Fprintf(os.Stderr, "  %s\n", t.Name)
		}
		os.Exit(2)
	}

	fmt.Printf("Auditing %s (2014 snapshot): %d files, %d lines\n\n",
		target.Name, len(target.Files), target.Lines())

	truthLines := truthIndex(c2014, target.Name)
	fmt.Printf("Ground truth: %d seeded vulnerabilities in this plugin\n\n", len(truthLines))

	for _, tool := range eval.Tools(nil) {
		res, err := tool.AnalyzeContext(context.Background(), target, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", tool.Name(), err)
			os.Exit(1)
		}
		summarize(res, truthLines)
	}

	fmt.Println("The gap between the tools is the paper's core point: only an")
	fmt.Println("OOP-aware, WordPress-aware analyzer sees the $wpdb flows, and only")
	fmt.Println("tools that analyze uncalled hook functions see the plugin's real")
	fmt.Println("attack surface.")
}

// truthIndex collects the seeded sink locations of one plugin.
func truthIndex(c *corpus.Corpus, plugin string) map[string]bool {
	idx := make(map[string]bool)
	for _, g := range c.Truths {
		if g.Plugin == plugin {
			idx[fmt.Sprintf("%s:%d:%s", g.File, g.Line, g.Class)] = true
		}
	}
	return idx
}

// summarize prints one tool's outcome against the plugin's ground truth.
func summarize(res *analyzer.Result, truths map[string]bool) {
	tp, fp := 0, 0
	byVector := make(map[string]int)
	for _, f := range res.Findings {
		if truths[f.Key()] {
			tp++
			byVector[f.Vector.TableIIRow()]++
		} else {
			fp++
		}
	}
	fmt.Printf("%-8s found %2d true vulnerabilities, %2d false alarms "+
		"(%d/%d files analyzed)\n",
		res.Tool, tp, fp, res.FilesAnalyzed, res.FilesAnalyzed+len(res.FilesFailed))
	vectors := make([]string, 0, len(byVector))
	for v := range byVector {
		vectors = append(vectors, v)
	}
	sort.Strings(vectors)
	for _, v := range vectors {
		fmt.Printf("           %-22s %d\n", v, byVector[v])
	}
	fmt.Println()
}
