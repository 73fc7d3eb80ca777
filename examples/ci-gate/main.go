// CI gate: use the analyzer as a library inside a delivery pipeline, the
// integration mode the paper describes in §III ("the use of phpSAFE can
// be part of the software development lifecycle of a company").
//
// The example audits two revisions of the same plugin: the baseline
// revision's findings are accepted as known debt, and the gate fails only
// when the new revision introduces NEW findings — exactly how a team
// would adopt a static analyzer on a legacy plugin without fixing
// everything at once.
//
// Run with:
//
//	go run ./examples/ci-gate
package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/analyzer"
	"repro/internal/rulepack"
	"repro/internal/taint"
)

// baselineRevision is the plugin as currently shipped (with a known,
// accepted finding).
const baselineRevision = `<?php
function gallery_show() {
	echo '<h1>' . $_GET['album'] . '</h1>'; // known debt, ticket #142
}
gallery_show();
`

// newRevision adds a feature — and, accidentally, a new SQL injection.
const newRevision = `<?php
function gallery_show() {
	echo '<h1>' . $_GET['album'] . '</h1>'; // known debt, ticket #142
}
function gallery_delete() {
	global $wpdb;
	$wpdb->query("DELETE FROM {$wpdb->prefix}albums WHERE id=" . $_GET['id']);
}
gallery_show();
`

func main() {
	engine := taint.New(rulepack.MustCompile("wordpress"), taint.DefaultOptions())

	baseline := mustScan(engine, "gallery", baselineRevision)
	accepted := make(map[string]bool, len(baseline.Findings))
	for _, f := range baseline.Findings {
		accepted[f.Key()] = true
	}
	fmt.Printf("baseline: %d accepted finding(s)\n", len(accepted))

	current := mustScan(engine, "gallery", newRevision)
	var fresh []analyzer.Finding
	for _, f := range current.Findings {
		if !accepted[f.Key()] {
			fresh = append(fresh, f)
		}
	}

	if len(fresh) == 0 {
		fmt.Println("gate PASSED: no new vulnerabilities introduced")
		return
	}
	fmt.Printf("gate FAILED: %d new finding(s):\n", len(fresh))
	for _, f := range fresh {
		fmt.Println("  " + f.String())
	}
	os.Exit(1)
}

// mustScan analyzes one in-memory revision.
func mustScan(engine *taint.Engine, name, src string) *analyzer.Result {
	res, err := engine.AnalyzeContext(context.Background(), &analyzer.Target{
		Name:  name,
		Files: []analyzer.SourceFile{{Path: name + ".php", Content: src}},
	}, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ci-gate: %v\n", err)
		os.Exit(2)
	}
	return res
}
