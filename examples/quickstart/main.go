// Quickstart: scan a small vulnerable WordPress plugin held in memory and
// print the findings with their data-flow traces.
//
// The embedded plugin reproduces the paper's two motivating examples
// (DSN 2015, §III.E and §V.C): database rows echoed without sanitization
// through WordPress objects, and a direct $_POST echo.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"repro/internal/analyzer"
	"repro/internal/report"
	"repro/internal/rulepack"
	"repro/internal/taint"
)

// pluginSource is a condensed vulnerable plugin, adapted from the
// mail-subscribe-list and wp-symposium patterns the paper quotes.
const pluginSource = `<?php
/**
 * Plugin Name: Mail Subscribe Demo
 */

add_action('admin_menu', 'sml_admin_page');

function sml_show_list() {
	global $wpdb;
	$results = $wpdb->get_results("SELECT * FROM " . $wpdb->prefix . "sml");
	foreach ($results as $row) {
		echo '<li>' . $row->sml_name . '</li>';
	}
}

function sml_admin_page() {
	// Direct POST echo (the wp-symposium pattern).
	echo 'Created ' . $_POST['img_path'] . '.';

	// Properly escaped output: not a finding.
	echo '<h2>' . esc_html($_GET['title']) . '</h2>';
}

sml_show_list();
`

func main() {
	// phpSAFE ships ready for WordPress plugins out of the box (§III.A):
	// generic PHP knowledge plus the WordPress sources, sanitizers and
	// sinks.
	engine := taint.New(rulepack.MustCompile("wordpress"), taint.DefaultOptions())

	target := &analyzer.Target{
		Name: "mail-subscribe-demo",
		Files: []analyzer.SourceFile{
			{Path: "mail-subscribe-demo.php", Content: pluginSource},
		},
	}

	result, err := engine.AnalyzeContext(context.Background(), target, nil)
	if err != nil {
		panic(err)
	}
	fmt.Print(report.Findings(result))

	fmt.Println("\nExpected: two XSS findings —")
	fmt.Println("  1. the $wpdb->get_results rows echoed in sml_show_list (DB vector,")
	fmt.Println("     only detectable with OOP analysis, §III.E), and")
	fmt.Println("  2. the direct $_POST echo in sml_admin_page (an uncalled hook")
	fmt.Println("     function, §III.B). The esc_html output is correctly ignored.")
}
