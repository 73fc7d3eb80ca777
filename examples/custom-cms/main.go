// Custom CMS rule pack: extend the analyzer's configuration to a
// different framework — the paper's §III.A extensibility claim ("this
// ability can be easily extended to other CMSs, by adding their input,
// filtering and sink functions to the configuration files") and its §VI
// future work (Drupal, Joomla).
//
// The framework knowledge lives entirely in joomla-like.json, a rule
// pack: a JSON document declaring the fictional CMS's database object,
// escaping API and input wrapper, layered on the builtin "generic" pack
// via "extends". No Go code is needed to teach the analyzer a new CMS —
// the same file also works with the scanners directly:
//
//	phpsafe -rule-pack examples/custom-cms/joomla-like.json <plugin-dir>
//	phpsafe rules lint examples/custom-cms/joomla-like.json
//
// or with the daemon, by POSTing {"rule_packs": ["joomla-like"]} after
// registering the pack.
//
// The example scans the same plugin with and without the framework
// knowledge: the framework-blind scan both misses a real vulnerability
// and raises a false alarm.
//
// Run with:
//
//	go run ./examples/custom-cms
package main

import (
	"context"
	_ "embed"
	"fmt"

	"repro/internal/analyzer"
	"repro/internal/rulepack"
	"repro/internal/taint"
)

//go:embed joomla-like.json
var packJSON []byte

// extension is a plugin for the fictional CMS.
const extension = `<?php
function render_items() {
	global $db;
	$rows = $db->loadObjectList();
	foreach ($rows as $row) {
		echo '<td>' . $row->title . '</td>';        // real XSS: DB data
	}
}

function search_items() {
	global $db;
	$term = $_GET['q'];
	$db->setQuery("SELECT * FROM #__items WHERE title = " . $db->quote($term));
	echo '<p>' . jhtml_escape($term) . '</p>';      // escaped: safe
}

render_items();
search_items();
`

func main() {
	target := &analyzer.Target{
		Name:  "joomla-like-extension",
		Files: []analyzer.SourceFile{{Path: "extension.php", Content: extension}},
	}

	// Load and validate the pack, then register it so its "extends"
	// chain resolves against the builtin packs.
	pack, err := rulepack.Load(packJSON)
	if err != nil {
		panic(err)
	}
	reg := rulepack.NewRegistry()
	reg.Register(pack)

	// Framework-aware scan: generic PHP + the custom CMS layer.
	aware, err := reg.Compile("joomla-like")
	if err != nil {
		panic(err)
	}
	scan(taint.New(aware, taint.DefaultOptions()), target,
		"WITH the joomla-like pack")

	// Framework-blind scan: generic PHP only.
	blind, err := reg.Compile("generic")
	if err != nil {
		panic(err)
	}
	scan(taint.New(blind, taint.DefaultOptions()), target,
		"WITHOUT framework knowledge")

	fmt.Println("With the pack, the analyzer sees the loadObjectList rows as a")
	fmt.Println("database source (1 real XSS), knows $db->quote protects the query")
	fmt.Println("and that jhtml_escape is safe. Without it, the real vulnerability")
	fmt.Println("disappears AND the escaped echo becomes a false alarm — the paper's")
	fmt.Println("§III.A argument for CMS-aware configuration, expressed as a JSON")
	fmt.Println("rule pack instead of code.")
}

// scan runs one configuration and prints a summary.
func scan(engine *taint.Engine, target *analyzer.Target, label string) {
	res, err := engine.AnalyzeContext(context.Background(), target, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %d finding(s)\n", label, len(res.Findings))
	for _, f := range res.Findings {
		fmt.Println("  " + f.String())
	}
	fmt.Println()
}
