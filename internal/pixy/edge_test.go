package pixy

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/analyzer"
)

// Additional Pixy envelope coverage.

func TestInterpolatedStringFlow(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$q = $_GET['q'];
echo "<p>result: $q</p>";`)
	want(t, res, 1, 0)
}

func TestHeredocFlow(t *testing.T) {
	t.Parallel()
	src := "<?php\n$n = $_POST['n'];\necho <<<HTML\n<b>$n</b>\nHTML;\n"
	res := scan(t, src)
	want(t, res, 1, 0)
}

func TestForeachPropagation(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
foreach ($_GET as $v) {
	echo $v;
}`)
	want(t, res, 1, 0)
}

func TestCastNeutralizes(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$n = (int) $_GET['n'];
echo $n;`)
	want(t, res, 0, 0)
}

func TestCompoundConcat(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$out = 'a';
$out .= $_GET['b'];
echo $out;`)
	want(t, res, 1, 0)
}

func TestTernaryArms(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$v = true ? $_GET['x'] : 'safe';
echo $v;`)
	want(t, res, 1, 0)
}

func TestUnsetKillsTaintAndDefines(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$x = $_GET['x'];
unset($x);
echo $x;`)
	// After unset the variable is defined-but-empty: neither tainted nor
	// register_globals-injectable (Pixy tracks the redefinition).
	want(t, res, 0, 0)
}

func TestSwitchBodies(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
switch ($_GET['t']) {
case 'a': echo $_GET['a']; break;
default: echo 'safe';
}`)
	want(t, res, 1, 0)
}

func TestExitSink(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php die($_COOKIE['session']);`)
	want(t, res, 1, 0)
}

func TestPrintfSink(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php printf('%s', $_GET['f']);`)
	want(t, res, 1, 0)
}

func TestGlobalStatementDefines(t *testing.T) {
	t.Parallel()
	// "global $x" inside a function marks $x defined (no register_globals
	// noise), though Pixy does not track the global's taint.
	res := scan(t, `<?php
function f() {
	global $conf;
	echo $conf;
}
f();`)
	want(t, res, 0, 0)
}

func TestStaticVarsDefined(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function f() {
	static $count = 0;
	echo $count;
}
f();`)
	want(t, res, 0, 0)
}

func TestNestedCallDepthBounded(t *testing.T) {
	t.Parallel()
	var sb strings.Builder
	sb.WriteString("<?php\n")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&sb, "function f%d($x) { return f%d($x); }\n", i, i+1)
	}
	sb.WriteString("function f30($x) { return $x; }\n")
	sb.WriteString("echo f0($_GET['x']);\n")
	res := scan(t, sb.String())
	if res == nil {
		t.Fatal("nil result")
	}
}

func TestRegisterGlobalsVectorAndTrace(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php echo $undefined_setting;`)
	want(t, res, 1, 0)
	f := res.Findings[0]
	if !RegisterGlobalsFinding(f) {
		t.Error("should be marked register_globals")
	}
	if f.Variable != "undefined_setting" {
		t.Errorf("variable = %q", f.Variable)
	}
}

func TestDynamicCallPassthrough(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$fn = 'strtoupper';
echo $fn($_GET['x']);`)
	want(t, res, 1, 0)
}

// TestQuickPixyNeverPanics exercises robustness on arbitrary inputs.
func TestQuickPixyNeverPanics(t *testing.T) {
	t.Parallel()
	eng := New()
	f := func(body string) bool {
		res, err := eng.AnalyzeContext(context.Background(), &analyzer.Target{
			Name:  "fuzz",
			Files: []analyzer.SourceFile{{Path: "fuzz.php", Content: "<?php " + body}},
		}, nil)
		return err == nil && res != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
