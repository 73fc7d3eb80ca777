package taint

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/corpus"
	"repro/internal/phpast"
	"repro/internal/phpparse"
	"repro/internal/rulepack"
)

// repeatedCallSource builds a plugin where one helper function is called
// from many sites — the workload where function summaries (paper §II,
// §III.C) pay off against whole-program re-analysis.
func repeatedCallSource(calls int) string {
	var sb strings.Builder
	sb.WriteString(`<?php
function deep3($s) { return '<i>' . $s . '</i>'; }
function deep2($s) { return deep3('[' . $s . ']'); }
function deep1($s) { return deep2(trim($s)); }
function format_row($s) {
	$wrapped = deep1($s);
	return '<td>' . $wrapped . '</td>';
}
`)
	for i := 0; i < calls; i++ {
		fmt.Fprintf(&sb, "echo format_row('cell %d');\n", i)
	}
	sb.WriteString("echo format_row($_GET['q']);\n")
	return sb.String()
}

// benchEngine runs one engine configuration over the repeated-call
// workload.
func benchEngine(b *testing.B, summaries bool) {
	b.Helper()
	opts := DefaultOptions()
	opts.FunctionSummaries = summaries
	engine := New(rulepack.MustCompile("wordpress"), opts)
	target := &analyzer.Target{
		Name:  "bench",
		Files: []analyzer.SourceFile{{Path: "bench.php", Content: repeatedCallSource(200)}},
	}
	// Both modes must find exactly the one real vulnerability.
	res, err := engine.AnalyzeContext(context.Background(), target, nil)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Findings) != 1 {
		b.Fatalf("findings = %d, want 1", len(res.Findings))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.AnalyzeContext(context.Background(), target, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSummaries measures the summary-based engine on a call-heavy
// workload (§III.C: "every function is analyzed only the first time it
// is called").
func BenchmarkSummaries(b *testing.B) {
	benchEngine(b, true)
}

// BenchmarkWholeProgram measures the ablation: re-analyzing every call
// (§II: "requires a lot of memory and processing power").
func BenchmarkWholeProgram(b *testing.B) {
	benchEngine(b, false)
}

// BenchmarkAnalyzeOOPPlugin measures a representative OOP plugin scan.
func BenchmarkAnalyzeOOPPlugin(b *testing.B) {
	src := `<?php
class Gallery {
	public $items;
	function load() {
		global $wpdb;
		$this->items = $wpdb->get_results("SELECT * FROM {$wpdb->prefix}photos");
	}
	function render() {
		foreach ($this->items as $item) {
			echo '<img src="' . $item->path . '" alt="' . esc_attr($item->title) . '">';
		}
	}
}
$g = new Gallery();
$g->load();
$g->render();
`
	engine := New(rulepack.MustCompile("wordpress"), DefaultOptions())
	target := &analyzer.Target{
		Name:  "gallery",
		Files: []analyzer.SourceFile{{Path: "gallery.php", Content: src}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.AnalyzeContext(context.Background(), target, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkAndTaint times model linking plus the taint stage alone:
// both corpus snapshots are parsed once, and every iteration scans each
// plugin over those ASTs, so lexing and parsing are left out. It
// isolates the interpreter's cost from the front end's.
func BenchmarkLinkAndTaint(b *testing.B) {
	engine := New(rulepack.MustCompile("wordpress"), DefaultOptions())
	c12, c14 := corpus.MustGenerate()
	targets := append(append([]*analyzer.Target{}, c12.Targets...), c14.Targets...)
	seeds := make([]*Seed, len(targets))
	for i, target := range targets {
		parsed := make(map[string]*phpast.File, len(target.Files))
		for _, sf := range target.Files {
			parsed[sf.Path] = phpparse.Parse(sf.Path, sf.Content, phpparse.Options{})
		}
		seeds[i] = &Seed{Parsed: parsed, Plan: func(map[string]*phpast.File, bool) map[string]*FileResult { return nil }}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, target := range targets {
			if _, _, err := engine.analyze(context.Background(), target, nil, seeds[i], false); err != nil {
				b.Fatal(err)
			}
		}
	}
}
