package taint

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/corpus"
	"repro/internal/rulepack"
)

// TestSharedCleanValuesStayZero scans both corpus snapshots with every
// builtin rule pack, and with the whole-program ablation, and then
// checks that the shared clean values still read as declared. The
// interpreter hands them out everywhere, so a combinator that wrote to
// a value it did not clone would show here.
func TestSharedCleanValuesStayZero(t *testing.T) {
	v2012, v2014 := corpus.MustGenerate()
	wholeProgram := DefaultOptions()
	wholeProgram.FunctionSummaries = false
	type config struct {
		pack string
		opts Options
	}
	var configs []config
	for _, p := range rulepack.Builtins() {
		configs = append(configs, config{p.Name, DefaultOptions()})
	}
	configs = append(configs, config{"wordpress", wholeProgram})

	findings := 0
	for _, cf := range configs {
		eng := New(rulepack.MustCompile(cf.pack), cf.opts)
		for _, c := range []*corpus.Corpus{v2012, v2014} {
			for _, target := range c.Targets {
				res, err := eng.AnalyzeContext(context.Background(), target, nil)
				if err != nil {
					t.Fatalf("%s %s: %v", cf.pack, target.Name, err)
				}
				// A recovered panic would end a file's analysis early
				// and hide what the rest of it wrote.
				if len(res.RobustnessFailures) > 0 {
					t.Fatalf("%s %s: %+v", cf.pack, target.Name, res.RobustnessFailures)
				}
				findings += len(res.Findings)
			}
		}
	}
	if findings == 0 {
		t.Fatal("the scans found nothing, so they exercised no taint")
	}
	if !reflect.DeepEqual(*untainted(), value{}) {
		t.Errorf("shared clean value was written: %+v", *untainted())
	}
	if !reflect.DeepEqual(*numericValue(), value{numeric: true}) {
		t.Errorf("shared numeric value was written: %+v", *numericValue())
	}
}

// allocSource builds a representative plugin file in the style of the
// front end's allocation gates: functions reading superglobals,
// sanitized and unsanitized SQL and echo sinks, calls between user
// functions, and a class whose methods read the database.
func allocSource() string {
	var b strings.Builder
	b.WriteString("<html><body>\n<?php\n")
	for i := 0; i < 40; i++ {
		n := strconv.Itoa(i)
		b.WriteString("function handler_" + n + "($req) {\n")
		b.WriteString("    global $wpdb;\n")
		b.WriteString("    $id = $_GET['id_" + n + "'];\n")
		b.WriteString("    $name = mysql_real_escape_string($req['name']);\n")
		b.WriteString("    $sql = \"SELECT * FROM t_" + n + " WHERE id = $id AND name = '$name'\";\n")
		b.WriteString("    $rows = $wpdb->get_results($sql);\n")
		b.WriteString("    if (count($rows) > " + n + ") {\n")
		b.WriteString("        echo \"<div id='row-{$id}'>\" . htmlentities($name) . '</div>';\n")
		b.WriteString("    }\n")
		b.WriteString("    return $rows;\n")
		b.WriteString("}\n")
		b.WriteString("echo handler_" + n + "($_POST);\n")
	}
	b.WriteString("class Plugin_Widget {\n")
	b.WriteString("    var $options = array('a' => 1, 'b' => 2);\n")
	b.WriteString("    function load() {\n")
	b.WriteString("        global $wpdb;\n")
	b.WriteString("        $this->items = $wpdb->get_results(\"SELECT * FROM {$wpdb->prefix}items\");\n")
	b.WriteString("    }\n")
	b.WriteString("    function render($attrs) {\n")
	b.WriteString("        foreach ($this->items as $k => $v) { echo $k . '=' . esc_attr($v->title) . $v->path; }\n")
	b.WriteString("        return (int)$this->options['a'] + 1;\n")
	b.WriteString("    }\n")
	b.WriteString("}\n")
	b.WriteString("$w = new Plugin_Widget();\n$w->load();\necho $w->render($_GET);\n?>\n</body></html>\n")
	return b.String()
}

// scanAllocsBound is the allocation gate's bound: 4511 allocations were
// measured when it was set (about 90 more under -race, where sync.Pool
// drops some of the lexer's pooled buffers), plus 3% headroom. The
// front end before its lexer stopped building trivia tokens and its
// parser carved nodes from slabs sized from the token stream took 6129;
// the engine before shared clean values and array taint sets took 12184.
const scanAllocsBound = 4650

// TestScanAllocsGate is the allocation gate for one whole scan (parse,
// model and taint) of a fixed plugin file. It fails when a change makes
// the cold path allocate more; lower scanAllocsBound after a change that
// makes it allocate less.
func TestScanAllocsGate(t *testing.T) {
	eng := New(rulepack.MustCompile("wordpress"), DefaultOptions())
	target := &analyzer.Target{
		Name:  "alloc",
		Files: []analyzer.SourceFile{{Path: "alloc.php", Content: allocSource()}},
	}
	scan := func() {
		res, err := eng.AnalyzeContext(context.Background(), target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Findings) == 0 {
			t.Fatal("the scan found nothing")
		}
	}
	scan() // warm the lexer's token pool
	allocs := testing.AllocsPerRun(20, scan)
	t.Logf("%v allocations per scan (bound %d)", allocs, scanAllocsBound)
	if allocs > scanAllocsBound {
		t.Fatalf("a scan allocates %v times, want at most %d", allocs, scanAllocsBound)
	}
}
