package rips

import (
	"context"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/rulepack"
)

// scan runs the default RIPS engine over one file.
func scan(t *testing.T, src string) *analyzer.Result {
	t.Helper()
	res, err := New(rulepack.MustCompile("generic")).AnalyzeContext(context.Background(), &analyzer.Target{
		Name:  "test-plugin",
		Files: []analyzer.SourceFile{{Path: "plugin.php", Content: src}},
	}, nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

// count tallies findings per class.
func count(res *analyzer.Result) (xss, sqli int) {
	for _, f := range res.Findings {
		switch f.Class {
		case analyzer.XSS:
			xss++
		case analyzer.SQLi:
			sqli++
		}
	}
	return xss, sqli
}

func want(t *testing.T, res *analyzer.Result, xss, sqli int) {
	t.Helper()
	gx, gs := count(res)
	if gx != xss || gs != sqli {
		t.Fatalf("XSS=%d SQLi=%d, want XSS=%d SQLi=%d\n%v", gx, gs, xss, sqli, res.Findings)
	}
}

func TestBackwardDirectGET(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php echo $_GET['q'];`)
	want(t, res, 1, 0)
	if res.Findings[0].Vector != analyzer.VectorGET {
		t.Errorf("vector = %v, want GET", res.Findings[0].Vector)
	}
}

func TestBackwardThroughAssignments(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$a = $_POST['x'];
$b = "prefix " . $a;
echo $b;`)
	want(t, res, 1, 0)
}

func TestBackwardOverwriteKillsTaint(t *testing.T) {
	t.Parallel()
	// Flow-sensitivity: the nearest definition wins on the backward walk.
	res := scan(t, `<?php
$a = $_GET['x'];
$a = 'safe';
echo $a;`)
	want(t, res, 0, 0)
}

func TestBackwardConcatKeepsEarlierTaint(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$out = $_GET['x'];
$out .= ' more';
echo $out;`)
	want(t, res, 1, 0)
}

func TestSanitizerStopsTrace(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
echo htmlspecialchars($_GET['a']);
$n = intval($_GET['b']);
echo $n;`)
	want(t, res, 0, 0)
}

func TestNoOOPVisibility(t *testing.T) {
	t.Parallel()
	// The paper's central comparison point (§II, §V.A): RIPS misses
	// every WordPress-object flow.
	res := scan(t, `<?php
global $wpdb;
$rows = $wpdb->get_results("SELECT * FROM t");
foreach ($rows as $row) { echo $row->name; }
$wpdb->query("DELETE FROM t WHERE id=" . $_GET['id']);`)
	want(t, res, 0, 0)
}

func TestNoWordPressSanitizerKnowledge(t *testing.T) {
	t.Parallel()
	// esc_html is unknown to RIPS → pass-through → false positive. This
	// drives RIPS's FP column in Table I.
	res := scan(t, `<?php echo esc_html($_GET['name']);`)
	want(t, res, 1, 0)
}

func TestNoWordPressSourceKnowledge(t *testing.T) {
	t.Parallel()
	// get_option is unknown → RIPS sees no source (false negative).
	res := scan(t, `<?php
$v = get_option('x');
echo $v;`)
	want(t, res, 0, 0)
}

func TestGuardSimulationAvoidsFP(t *testing.T) {
	t.Parallel()
	// RIPS simulates is_numeric (phpSAFE does not — §V.A FP source).
	res := scan(t, `<?php
$id = $_GET['id'];
if (!is_numeric($id)) { die('bad'); }
echo $id;`)
	want(t, res, 0, 0)
}

func TestPregReplaceWhitelistSimulation(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$slug = preg_replace('/[^a-z0-9_]/', '', $_GET['slug']);
echo $slug;`)
	want(t, res, 0, 0)

	// A non-whitelist replacement is not sanitizing.
	res2 := scan(t, `<?php
$s = preg_replace('/foo/', 'bar', $_GET['x']);
echo $s;`)
	want(t, res2, 1, 0)
}

func TestSQLiSink(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$id = $_REQUEST['id'];
mysql_query("SELECT * FROM t WHERE id=$id");`)
	want(t, res, 0, 1)
}

func TestInterproceduralParam(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function show($m) { echo $m; }
show($_GET['m']);`)
	want(t, res, 1, 0)
}

func TestInterproceduralReturn(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function grab() { return $_POST['v']; }
$x = grab();
echo $x;`)
	want(t, res, 1, 0)
}

func TestUncalledFunctionAnalyzed(t *testing.T) {
	t.Parallel()
	// §V.A: RIPS, like phpSAFE, detects vulnerabilities in functions not
	// called from the plugin code.
	res := scan(t, `<?php
add_action('init', 'my_hook');
function my_hook() { echo $_GET['x']; }`)
	want(t, res, 1, 0)
}

func TestParamSafeAtAllSites(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function show($m) { echo $m; }
show('static text');`)
	want(t, res, 0, 0)
}

func TestDBFunctionSource(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$r = mysql_query("SELECT * FROM t");
$row = mysql_fetch_assoc($r);
echo $row['name'];`)
	want(t, res, 1, 0)
	if res.Findings[0].Vector != analyzer.VectorDB {
		t.Errorf("vector = %v, want DB", res.Findings[0].Vector)
	}
}

func TestRecursiveFunctionTerminates(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function r($n) { return r($n - 1); }
echo r($_GET['x']);`)
	if res == nil {
		t.Fatal("nil result")
	}
}

func TestMutualRecursionTerminates(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function a($x) { return b($x); }
function b($x) { return a($x); }
echo a($_GET['x']);`)
	if res == nil {
		t.Fatal("nil result")
	}
}

func TestRevertNotModeled(t *testing.T) {
	t.Parallel()
	// RIPS's backward slicing stops at the addslashes sanitizer; it does
	// not model the stripslashes revert that phpSAFE catches (§III.A).
	res := scan(t, `<?php
$x = addslashes($_GET['x']);
$y = stripslashes($x);
mysql_query("SELECT * FROM t WHERE a='$y'");`)
	want(t, res, 0, 0)
}

func TestMultiFileIndependence(t *testing.T) {
	t.Parallel()
	res, err := New(rulepack.MustCompile("generic")).AnalyzeContext(context.Background(), &analyzer.Target{
		Name: "multi",
		Files: []analyzer.SourceFile{
			{Path: "a.php", Content: `<?php echo $_GET['a'];`},
			{Path: "b.php", Content: `<?php echo $_GET['b'];`},
		},
	}, nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	want(t, res, 2, 0)
	if res.FilesAnalyzed != 2 {
		t.Errorf("FilesAnalyzed = %d, want 2", res.FilesAnalyzed)
	}
}

func TestCrossFileFunctionResolution(t *testing.T) {
	t.Parallel()
	// Functions resolve target-wide even without include processing.
	res, err := New(rulepack.MustCompile("generic")).AnalyzeContext(context.Background(), &analyzer.Target{
		Name: "multi",
		Files: []analyzer.SourceFile{
			{Path: "lib.php", Content: `<?php function put($s) { echo $s; }`},
			{Path: "main.php", Content: `<?php put($_GET['x']);`},
		},
	}, nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	want(t, res, 1, 0)
}
