package taint

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/rulepack"
)

// scan runs the default-configuration engine over a single-file target.
func scan(t *testing.T, src string) *analyzer.Result {
	t.Helper()
	return scanOpts(t, DefaultOptions(), src)
}

// scanOpts runs the engine with custom options over a single-file target.
func scanOpts(t *testing.T, opts Options, src string) *analyzer.Result {
	t.Helper()
	eng := New(rulepack.MustCompile("wordpress"), opts)
	res, err := eng.AnalyzeContext(context.Background(), &analyzer.Target{
		Name:  "test-plugin",
		Files: []analyzer.SourceFile{{Path: "plugin.php", Content: src}},
	}, nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

// scanFiles runs the engine over a multi-file target.
func scanFiles(t *testing.T, files map[string]string) *analyzer.Result {
	t.Helper()
	target := &analyzer.Target{Name: "test-plugin"}
	for path, content := range files {
		target.Files = append(target.Files, analyzer.SourceFile{Path: path, Content: content})
	}
	eng := New(rulepack.MustCompile("wordpress"), DefaultOptions())
	res, err := eng.AnalyzeContext(context.Background(), target, nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

// wantFindings asserts the number of findings per class.
func wantFindings(t *testing.T, res *analyzer.Result, xss, sqli int) {
	t.Helper()
	gotXSS, gotSQLi := 0, 0
	for _, f := range res.Findings {
		switch f.Class {
		case analyzer.XSS:
			gotXSS++
		case analyzer.SQLi:
			gotSQLi++
		}
	}
	if gotXSS != xss || gotSQLi != sqli {
		t.Fatalf("findings XSS=%d SQLi=%d, want XSS=%d SQLi=%d\nall: %v",
			gotXSS, gotSQLi, xss, sqli, res.Findings)
	}
}

func TestDirectGETEcho(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php echo $_GET['name'];`)
	wantFindings(t, res, 1, 0)
	f := res.Findings[0]
	if f.Vector != analyzer.VectorGET {
		t.Errorf("vector = %v, want GET", f.Vector)
	}
	if f.Sink != "echo" {
		t.Errorf("sink = %q, want echo", f.Sink)
	}
	if f.Line != 1 {
		t.Errorf("line = %d, want 1", f.Line)
	}
}

func TestTaintThroughAssignment(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$name = $_POST['name'];
$greeting = "Hello " . $name;
echo $greeting;`)
	wantFindings(t, res, 1, 0)
	f := res.Findings[0]
	if f.Vector != analyzer.VectorPOST {
		t.Errorf("vector = %v, want POST", f.Vector)
	}
	if f.Line != 4 {
		t.Errorf("line = %d, want 4", f.Line)
	}
	if len(f.Trace) < 3 {
		t.Errorf("trace too short: %v", f.Trace)
	}
	if !strings.Contains(f.Trace[0].Note, "source") {
		t.Errorf("trace should start at source, got %v", f.Trace[0])
	}
}

func TestSanitizerClearsTaint(t *testing.T) {
	t.Parallel()
	for _, fn := range []string{"htmlentities", "htmlspecialchars", "esc_html", "esc_attr", "intval", "sanitize_text_field"} {
		fn := fn
		t.Run(fn, func(t *testing.T) {
			t.Parallel()
			res := scan(t, fmt.Sprintf(`<?php echo %s($_GET['x']);`, fn))
			wantFindings(t, res, 0, 0)
		})
	}
}

func TestXSSSanitizerDoesNotClearSQLi(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$x = htmlentities($_GET['x']);
mysql_query("SELECT * FROM t WHERE a='$x'");`)
	wantFindings(t, res, 0, 1)
}

func TestRevertReactivatesTaint(t *testing.T) {
	t.Parallel()
	// The §III.A revert scenario: sanitize, then stripslashes undoes it.
	res := scan(t, `<?php
$x = addslashes($_GET['x']);
$y = stripslashes($x);
mysql_query("SELECT * FROM t WHERE a='$y'");`)
	wantFindings(t, res, 0, 1)
}

func TestSQLiDirectInterpolation(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$id = $_GET['id'];
mysql_query("SELECT * FROM posts WHERE id=$id");`)
	wantFindings(t, res, 0, 1)
}

func TestWpdbQuerySink(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
global $wpdb;
$id = $_REQUEST['id'];
$wpdb->query("DELETE FROM {$wpdb->prefix}items WHERE id=" . $id);`)
	wantFindings(t, res, 0, 1)
	if res.Findings[0].Vector != analyzer.VectorRequest {
		t.Errorf("vector = %v, want Request", res.Findings[0].Vector)
	}
}

func TestWpdbPrepareIsSafe(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
global $wpdb;
$id = $_GET['id'];
$wpdb->query($wpdb->prepare("SELECT * FROM t WHERE id=%d", $id));`)
	wantFindings(t, res, 0, 0)
}

func TestPaperMailSubscribeListExample(t *testing.T) {
	t.Parallel()
	// The motivating example of §III.E, adapted from mail-subscribe-list
	// 2.1.1: rows from $wpdb->get_results echoed without sanitization.
	res := scan(t, `<?php
global $wpdb;
$results = $wpdb->get_results("SELECT * FROM " . $wpdb->prefix . "sml");
foreach ($results as $row) {
	echo '<li>' . $row->sml_name . '</li>';
}`)
	wantFindings(t, res, 1, 0)
	f := res.Findings[0]
	if f.Vector != analyzer.VectorDB {
		t.Errorf("vector = %v, want DB", f.Vector)
	}
	if f.Line != 5 {
		t.Errorf("line = %d, want 5", f.Line)
	}
}

func TestOOPDisabledMissesWpdbFlow(t *testing.T) {
	t.Parallel()
	opts := DefaultOptions()
	opts.OOP = false
	res := scanOpts(t, opts, `<?php
global $wpdb;
$rows = $wpdb->get_results("SELECT * FROM t");
foreach ($rows as $row) { echo $row->name; }`)
	wantFindings(t, res, 0, 0)
}

func TestInterproceduralParamToSink(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function show($msg) {
	echo '<div>' . $msg . '</div>';
}
show($_GET['m']);
show('a literal');`)
	// One finding: the tainted call instantiates the summary flow; the
	// literal call does not.
	wantFindings(t, res, 1, 0)
	if res.Findings[0].Line != 3 {
		t.Errorf("line = %d, want 3 (sink inside show)", res.Findings[0].Line)
	}
}

func TestInterproceduralReturnFlow(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function pick($arr, $key) {
	return $arr[$key];
}
$v = pick($_POST, 'name');
echo $v;`)
	wantFindings(t, res, 1, 0)
}

func TestTransitiveSummaryFlow(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function inner($x) { echo $x; }
function outer($y) { inner($y); }
outer($_GET['q']);`)
	wantFindings(t, res, 1, 0)
}

func TestFunctionSourceInsideBody(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function dump_file($fp) {
	$res = fgets($fp, 128);
	echo $res;
}
dump_file($h);`)
	wantFindings(t, res, 1, 0)
	if res.Findings[0].Vector != analyzer.VectorFile {
		t.Errorf("vector = %v, want File", res.Findings[0].Vector)
	}
}

func TestUncalledFunctionAnalyzed(t *testing.T) {
	t.Parallel()
	// §III.B: hook callbacks are never called from plugin code but must
	// be analyzed anyway.
	res := scan(t, `<?php
add_action('admin_menu', 'myplugin_admin_page');
function myplugin_admin_page() {
	echo $_GET['tab'];
}`)
	wantFindings(t, res, 1, 0)
}

func TestUncalledMethodAnalyzed(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
class My_Widget {
	function render_page() {
		echo $_COOKIE['pref'];
	}
}`)
	wantFindings(t, res, 1, 0)
	if res.Findings[0].Vector != analyzer.VectorCookie {
		t.Errorf("vector = %v, want Cookie", res.Findings[0].Vector)
	}
}

func TestUncalledPassDisabled(t *testing.T) {
	t.Parallel()
	opts := DefaultOptions()
	opts.AnalyzeUncalled = false
	res := scanOpts(t, opts, `<?php
function never_called() { echo $_GET['x']; }`)
	wantFindings(t, res, 0, 0)
}

func TestPropertyFlowBetweenMethods(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
class Form {
	public $value;
	function load() { $this->value = $_POST['v']; }
	function render() { echo $this->value; }
}
$f = new Form();
$f->load();
$f->render();`)
	wantFindings(t, res, 1, 0)
}

func TestMethodCallSummary(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
class Printer {
	function out($s) { echo $s; }
}
$p = new Printer();
$p->out($_GET['x']);
$p->out('safe');`)
	wantFindings(t, res, 1, 0)
}

func TestInheritedMethodResolution(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
class Base {
	function show($s) { echo $s; }
}
class Child extends Base {
}
$c = new Child();
$c->show($_GET['x']);`)
	wantFindings(t, res, 1, 0)
}

func TestStaticCallFlow(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
class Util {
	static function output($s) { echo $s; }
}
Util::output($_REQUEST['q']);`)
	wantFindings(t, res, 1, 0)
}

func TestUnsetClearsTaint(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$x = $_GET['x'];
unset($x);
echo $x;`)
	wantFindings(t, res, 0, 0)
}

func TestArithmeticNeutralizes(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$n = $_GET['n'] + 1;
echo $n;
$m = (int) $_GET['m'];
echo $m;`)
	wantFindings(t, res, 0, 0)
}

func TestSequentialBranchSemantics(t *testing.T) {
	t.Parallel()
	// Paper §III.C: conditionals do not change the data flow; blocks are
	// parsed in sequence. A later overwrite clears the taint.
	res := scan(t, `<?php
$x = $_GET['x'];
if ($mode) { $x = 'safe'; }
echo $x;`)
	wantFindings(t, res, 0, 0)

	// ...and taint assigned inside a branch persists after it.
	res2 := scan(t, `<?php
$x = 'safe';
if ($mode) { $x = $_GET['x']; }
echo $x;`)
	wantFindings(t, res2, 1, 0)
}

func TestNumericGuardIgnored(t *testing.T) {
	t.Parallel()
	// phpSAFE does not interpret validation conditions — a documented
	// source of its false positives (§V.A). The engine must flag this.
	res := scan(t, `<?php
$id = $_GET['id'];
if (!is_numeric($id)) { die('bad id'); }
echo $id;`)
	wantFindings(t, res, 1, 0)
}

func TestLoopConcatenation(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$out = '';
foreach ($_POST['items'] as $item) {
	$out .= '<li>' . $item . '</li>';
}
echo $out;`)
	wantFindings(t, res, 1, 0)
}

func TestDedupAcrossRepeatedCalls(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function f($x) { echo $x; }
f($_GET['a']);
f($_GET['b']);`)
	// Same sink location: one deduplicated finding.
	wantFindings(t, res, 1, 0)
}

func TestPrintAndExitSinks(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
print $_GET['a'];
die($_GET['b']);`)
	wantFindings(t, res, 2, 0)
}

func TestPrintfSink(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php printf("<b>%s</b>", $_GET['x']);`)
	wantFindings(t, res, 1, 0)
}

func TestRecursionTerminates(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function rec($n) {
	if ($n > 0) { rec($n - 1); }
	echo $_GET['x'];
	return rec($n);
}
rec(5);`)
	wantFindings(t, res, 1, 0)
}

func TestMutualRecursionTerminates(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function a($x) { return b($x); }
function b($x) { return a($x); }
echo a($_GET['q']);`)
	if res == nil {
		t.Fatal("nil result")
	}
}

func TestIncludeFollowing(t *testing.T) {
	t.Parallel()
	res := scanFiles(t, map[string]string{
		"main.php": `<?php
include 'helpers.php';
echo $greeting;`,
		"helpers.php": `<?php
$greeting = 'Hi ' . $_GET['name'];`,
	})
	wantFindings(t, res, 1, 0)
}

func TestIncludeFunctionDefinition(t *testing.T) {
	t.Parallel()
	res := scanFiles(t, map[string]string{
		"main.php": `<?php
require_once 'lib.php';
render_it($_GET['x']);`,
		"lib.php": `<?php
function render_it($s) { echo $s; }`,
	})
	wantFindings(t, res, 1, 0)
}

func TestIncludeBudgetFailsFile(t *testing.T) {
	t.Parallel()
	files := map[string]string{}
	var includes strings.Builder
	includes.WriteString("<?php\n")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&includes, "include 'part%d.php';\n", i)
		files[fmt.Sprintf("part%d.php", i)] = "<?php $x" + fmt.Sprint(i) + " = 1;"
	}
	includes.WriteString("echo $_GET['x'];\n")
	files["huge.php"] = includes.String()

	res := scanFiles(t, files)
	foundFailed := false
	for _, f := range res.FilesFailed {
		if f == "huge.php" {
			foundFailed = true
		}
	}
	if !foundFailed {
		t.Fatalf("huge.php should fail the include budget; failed = %v", res.FilesFailed)
	}
	// The vulnerability inside the failed file must NOT be reported.
	for _, f := range res.Findings {
		if f.File == "huge.php" {
			t.Errorf("finding in failed file: %v", f)
		}
	}
}

// TestIncludeBudgetCountsEdges pins the include-closure count the budget
// compares: a depth-first walk from each file in which every resolved
// include adds one, an include of a file already on the walk adds one
// and nothing more, and an unresolved include adds nothing.
func TestIncludeBudgetCountsEdges(t *testing.T) {
	t.Parallel()
	files := []analyzer.SourceFile{
		// a: b twice, an unresolvable literal, a dynamic path, then c.
		{Path: "a.php", Content: `<?php
include 'b.php';
include 'b.php';
include 'missing.php';
include $dyn;
include 'c.php';
echo $_GET['a'];`},
		// b closes the cycle a -> b -> a, then reaches d.
		{Path: "b.php", Content: "<?php\ninclude 'a.php';\ninclude 'd.php';\n"},
		{Path: "c.php", Content: "<?php\nrequire_once dirname(__FILE__) . '/d.php';\n"},
		{Path: "d.php", Content: "<?php $d = 1;"},
	}
	// a: b (1 + b's a and d = 3), b again (1), c (1 + d = 2): 6.
	// b: a (1 + a's b, b again and c with d = 5), d already seen (1): 6.
	// c: d (1). d: 0.
	sizes := map[string]int{"a.php": 6, "b.php": 6, "c.php": 1}
	for _, budget := range []int{6, 5, 1, 0} {
		opts := DefaultOptions()
		opts.IncludeBudget = budget
		eng := New(rulepack.MustCompile("wordpress"), opts)
		res, err := eng.AnalyzeContext(context.Background(), &analyzer.Target{Name: "includes", Files: files}, nil)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		var want []string
		for _, f := range files {
			if size := sizes[f.Path]; size > budget {
				want = append(want, fmt.Sprintf(
					"%s: include closure of %d files exceeds budget %d; file not analyzed",
					f.Path, size, budget))
			}
		}
		var got []string
		for _, e := range res.Errors {
			if strings.Contains(e, "include closure") {
				got = append(got, e)
			}
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("budget %d: include errors =\n%s\nwant\n%s", budget,
				strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if len(res.FilesFailed) != len(want) {
			t.Errorf("budget %d: FilesFailed = %v, want %d files", budget, res.FilesFailed, len(want))
		}
	}
}

func TestGlobalKeywordBinding(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$payload = $_GET['p'];
function emit() {
	global $payload;
	echo $payload;
}
emit();`)
	wantFindings(t, res, 1, 0)
}

func TestClosureBodyAnalyzed(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
add_action('init', function () {
	echo $_GET['q'];
});`)
	wantFindings(t, res, 1, 0)
}

func TestGetOptionIsDBSource(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$title = get_option('my_plugin_title');
echo $title;`)
	wantFindings(t, res, 1, 0)
	if res.Findings[0].Vector != analyzer.VectorDB {
		t.Errorf("vector = %v, want DB", res.Findings[0].Vector)
	}
}

func TestMysqlFetchSource(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$r = mysql_query("SELECT * FROM t");
while ($row = mysql_fetch_assoc($r)) {
	echo $row['name'];
}`)
	wantFindings(t, res, 1, 0)
	if res.Findings[0].Vector != analyzer.VectorDB {
		t.Errorf("vector = %v, want DB", res.Findings[0].Vector)
	}
}

func TestPaperStripslashesDBExample(t *testing.T) {
	t.Parallel()
	// §V.C example adapted from wp-photo-album-plus: a prepared query is
	// SQL-safe but the echoed result is still an XSS (blended attack).
	res := scan(t, `<?php
global $wpdb;
$image = $wpdb->get_var($wpdb->prepare("SELECT name FROM t WHERE id=%d", $id));
echo stripslashes($image);`)
	wantFindings(t, res, 1, 0)
	if res.Findings[0].Class != analyzer.XSS {
		t.Errorf("class = %v, want XSS", res.Findings[0].Class)
	}
}

func TestCustomSanitizerNotRecognized(t *testing.T) {
	t.Parallel()
	// A plugin-defined regex cleaner is beyond the configuration's
	// knowledge: phpSAFE conservatively keeps the taint (its documented
	// FP profile, §V.A).
	res := scan(t, `<?php
function my_clean($s) {
	return preg_replace('/[^a-z0-9_]/', '', $s);
}
echo my_clean($_GET['slug']);`)
	wantFindings(t, res, 1, 0)
}

func TestResultAccounting(t *testing.T) {
	t.Parallel()
	res := scanFiles(t, map[string]string{
		"a.php": "<?php\necho 1;\n",
		"b.php": "<?php\necho 2;\n",
	})
	if res.FilesAnalyzed != 2 {
		t.Errorf("FilesAnalyzed = %d, want 2", res.FilesAnalyzed)
	}
	if res.LinesAnalyzed < 4 {
		t.Errorf("LinesAnalyzed = %d, want >= 4", res.LinesAnalyzed)
	}
}

func TestFindingTraceEndsAtSink(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$a = $_GET['a'];
$b = $a;
echo $b;`)
	wantFindings(t, res, 1, 0)
	trace := res.Findings[0].Trace
	last := trace[len(trace)-1]
	if !strings.Contains(last.Note, "sink") {
		t.Errorf("last trace step should be the sink, got %v", last)
	}
}

func TestSummariesVsConcreteAgree(t *testing.T) {
	t.Parallel()
	src := `<?php
function wrap($s) { return '<b>' . $s . '</b>'; }
function show($s) { echo wrap($s); }
show($_GET['x']);
echo wrap($_POST['y']);`
	withSummaries := scan(t, src)

	opts := DefaultOptions()
	opts.FunctionSummaries = false
	concrete := scanOpts(t, opts, src)

	if len(withSummaries.Findings) != len(concrete.Findings) {
		t.Fatalf("summary mode found %d, concrete mode found %d",
			len(withSummaries.Findings), len(concrete.Findings))
	}
}
