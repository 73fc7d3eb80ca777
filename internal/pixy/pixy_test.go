package pixy

import (
	"context"
	"testing"

	"repro/internal/analyzer"
)

// scan runs Pixy over one file.
func scan(t *testing.T, src string) *analyzer.Result {
	t.Helper()
	res, err := New().AnalyzeContext(context.Background(), &analyzer.Target{
		Name:  "test-plugin",
		Files: []analyzer.SourceFile{{Path: "plugin.php", Content: src}},
	}, nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

func want(t *testing.T, res *analyzer.Result, xss, sqli int) {
	t.Helper()
	gx, gs := 0, 0
	for _, f := range res.Findings {
		switch f.Class {
		case analyzer.XSS:
			gx++
		case analyzer.SQLi:
			gs++
		}
	}
	if gx != xss || gs != sqli {
		t.Fatalf("XSS=%d SQLi=%d, want XSS=%d SQLi=%d\n%v", gx, gs, xss, sqli, res.Findings)
	}
}

func TestForwardDirectGET(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php echo $_GET['q'];`)
	want(t, res, 1, 0)
}

func TestFlowSensitiveOverwrite(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$x = $_GET['q'];
$x = 'safe';
echo $x;`)
	want(t, res, 0, 0)
}

func TestSanitizer2007Known(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php echo htmlentities($_GET['q']);`)
	want(t, res, 0, 0)
}

func TestSanitizerPost2007Unknown(t *testing.T) {
	t.Parallel()
	// filter_var postdates Pixy's last update: pass-through → FP.
	res := scan(t, `<?php echo filter_var($_GET['q'], FILTER_SANITIZE_STRING);`)
	want(t, res, 1, 0)
}

func TestWordPressSanitizerUnknown(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php echo esc_html($_GET['q']);`)
	want(t, res, 1, 0)
}

func TestClassFileFailsCompletely(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
class Widget { function show() { echo $_GET['x']; } }
echo $_GET['y'];`)
	// The whole file fails: no findings, one failed file, one error.
	want(t, res, 0, 0)
	if len(res.FilesFailed) != 1 {
		t.Fatalf("FilesFailed = %v, want 1 entry", res.FilesFailed)
	}
	if len(res.Errors) == 0 {
		t.Fatal("expected a parse error message")
	}
	if res.FilesAnalyzed != 0 {
		t.Fatalf("FilesAnalyzed = %d, want 0", res.FilesAnalyzed)
	}
}

func TestObjectOperatorRaisesWarning(t *testing.T) {
	t.Parallel()
	// Procedural file that touches an object: analysis continues but the
	// flow is invisible and a warning is recorded.
	res := scan(t, `<?php
$rows = $wpdb->get_results("SELECT * FROM t");
echo $_GET['x'];`)
	want(t, res, 1, 0)
	if len(res.Errors) == 0 {
		t.Fatal("expected an object-operator warning")
	}
}

func TestRegisterGlobalsFinding(t *testing.T) {
	t.Parallel()
	// $page is never initialized: with register_globals=1 an attacker
	// controls it (§V.A: half of Pixy's findings).
	res := scan(t, `<?php
if ($page) {
	echo $page;
}`)
	want(t, res, 1, 0)
	if !RegisterGlobalsFinding(res.Findings[0]) {
		t.Error("finding should be marked as register_globals")
	}
	if res.Findings[0].Vector != analyzer.VectorRequest {
		t.Errorf("vector = %v, want Request", res.Findings[0].Vector)
	}
}

func TestDefinedVariableNoRegisterGlobals(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$page = 'home';
echo $page;`)
	want(t, res, 0, 0)
}

func TestIncludedDefinitionInvisible(t *testing.T) {
	t.Parallel()
	// $title is defined in another file; Pixy does not follow includes,
	// so the read looks register_globals-injectable (false positive
	// against ground truth).
	res, err := New().AnalyzeContext(context.Background(), &analyzer.Target{
		Name: "multi",
		Files: []analyzer.SourceFile{
			{Path: "defs.php", Content: `<?php $title = 'Hello';`},
			{Path: "main.php", Content: `<?php
include 'defs.php';
echo $title;`},
		},
	}, nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	want(t, res, 1, 0)
	if res.Findings[0].File != "main.php" {
		t.Errorf("finding in %s, want main.php", res.Findings[0].File)
	}
}

func TestUncalledFunctionNotAnalyzed(t *testing.T) {
	t.Parallel()
	// §V.A: "Pixy is unable to [detect vulnerabilities in functions that
	// are not called from the plugin code]".
	res := scan(t, `<?php
function my_hook() { echo $_GET['x']; }`)
	want(t, res, 0, 0)
}

func TestCalledFunctionAnalyzed(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function show($m) { echo $m; }
show($_GET['m']);`)
	want(t, res, 1, 0)
}

func TestContextSensitivePerCall(t *testing.T) {
	t.Parallel()
	// Re-analysis per call: the safe call produces no finding even after
	// the tainted one.
	res := scan(t, `<?php
function show($m) { echo $m; }
show('safe');
show($_GET['m']);`)
	want(t, res, 1, 0)
}

func TestAliasAnalysis(t *testing.T) {
	t.Parallel()
	// The "-A" reference-operator flag (§IV.B): $b aliases $a, so taint
	// written through $a is visible through $b.
	res := scan(t, `<?php
$a = 'clean';
$b =& $a;
$a = $_GET['x'];
echo $b;`)
	want(t, res, 1, 0)
}

func TestSQLiSink(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$id = $_GET['id'];
mysql_query("SELECT * FROM t WHERE id=$id");`)
	want(t, res, 0, 1)
}

func TestFunctionScopeNoRegisterGlobals(t *testing.T) {
	t.Parallel()
	// Locals inside functions are not register_globals-injectable.
	res := scan(t, `<?php
function f() {
	echo $local;
}
f();`)
	want(t, res, 0, 0)
}

func TestRecursionTerminates(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function r($n) { return r($n); }
echo r($_GET['x']);`)
	if res == nil {
		t.Fatal("nil result")
	}
}

func TestRobustnessAccounting(t *testing.T) {
	t.Parallel()
	res, err := New().AnalyzeContext(context.Background(), &analyzer.Target{
		Name: "mixed",
		Files: []analyzer.SourceFile{
			{Path: "oop.php", Content: `<?php class A {}`},
			{Path: "proc.php", Content: `<?php echo 'ok';`},
		},
	}, nil)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.FilesAnalyzed != 1 || len(res.FilesFailed) != 1 {
		t.Fatalf("analyzed=%d failed=%v, want 1 and 1", res.FilesAnalyzed, res.FilesFailed)
	}
}
