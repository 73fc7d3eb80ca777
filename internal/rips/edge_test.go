package rips

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/analyzer"
	"repro/internal/rulepack"
)

// Additional RIPS backward-slicing coverage.

func TestBackwardThroughTernary(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$v = $flag ? $_GET['a'] : 'safe';
echo $v;`)
	want(t, res, 1, 0)
}

func TestBackwardThroughForeach(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$rows = $_POST['rows'];
foreach ($rows as $r) {
	echo $r;
}`)
	want(t, res, 1, 0)
}

func TestBackwardCastStops(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$n = (int) $_GET['n'];
echo $n;`)
	want(t, res, 0, 0)
}

func TestBackwardArithmeticStops(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$n = $_GET['n'] + 1;
echo $n;`)
	want(t, res, 0, 0)
}

func TestBackwardInterpolatedString(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$id = $_REQUEST['id'];
mysql_query("DELETE FROM t WHERE id=$id");`)
	want(t, res, 0, 1)
}

func TestBackwardHeredoc(t *testing.T) {
	t.Parallel()
	src := "<?php\n$w = $_GET['w'];\n$sql = <<<S\nSELECT * FROM t WHERE a='$w'\nS;\nmysql_query($sql);\n"
	res := scan(t, src)
	want(t, res, 0, 1)
}

func TestUnsetStopsTrace(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$x = $_GET['x'];
unset($x);
echo $x;`)
	want(t, res, 0, 0)
}

func TestGuardOnlyCoversNamedVariable(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$a = $_GET['a'];
$b = $_GET['b'];
if (!is_numeric($a)) { die(); }
echo $a;
echo $b;`)
	// $a is guarded, $b is not.
	want(t, res, 1, 0)
}

func TestArgumentEvaluationSinksInsideCalls(t *testing.T) {
	t.Parallel()
	// A sink used as an argument expression still triggers.
	res := scan(t, `<?php
my_log(print($_GET['x']));`)
	want(t, res, 1, 0)
}

func TestMultipleCallSitesAnyTainted(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function show($m) { echo $m; }
show('safe one');
show('safe two');
show($_COOKIE['c']);`)
	want(t, res, 1, 0)
	if res.Findings[0].Vector != analyzer.VectorCookie {
		t.Errorf("vector = %v, want Cookie", res.Findings[0].Vector)
	}
}

func TestExitAndVarDumpSinks(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
die($_GET['msg']);
var_dump($_POST['v']);`)
	want(t, res, 2, 0)
}

func TestClosureBodySinks(t *testing.T) {
	t.Parallel()
	// RIPS flattens closure bodies into the surrounding flow.
	res := scan(t, `<?php
add_action('init', function () {
	echo $_GET['q'];
});`)
	want(t, res, 1, 0)
}

func TestDynamicCallArgsTraced(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$fn = 'htmlspecialchars';
echo $fn($_GET['x']);`)
	// RIPS cannot resolve the dynamic name and conservatively keeps the
	// argument taint: a known (and faithful) false positive source.
	want(t, res, 1, 0)
}

func TestDeepRecursionBounded(t *testing.T) {
	t.Parallel()
	var sb strings.Builder
	sb.WriteString("<?php\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "function g%d($x) { return g%d($x); }\n", i, i+1)
	}
	sb.WriteString("function g40($x) { return $x; }\n")
	sb.WriteString("echo g0($_GET['x']);\n")
	res := scan(t, sb.String())
	if res == nil {
		t.Fatal("nil result")
	}
}

func TestWhitelistPatternRecognizer(t *testing.T) {
	t.Parallel()
	tests := []struct {
		pattern     string
		replacement string
		safe        bool
	}{
		{`/[^a-z0-9]/`, ``, true},
		{`/[^a-zA-Z0-9_\-]/i`, ``, true},
		{`/[^a-z<>]/`, ``, false}, // allows angle brackets through
		{`/foo/`, ``, false},      // not a whitelist
		{`/[^a-z]/`, `X`, false},  // non-empty replacement
	}
	for _, tt := range tests {
		src := fmt.Sprintf(`<?php
$c = preg_replace('%s', '%s', $_GET['x']);
echo $c;`, tt.pattern, tt.replacement)
		res := scan(t, src)
		got := len(res.Findings) == 0
		if got != tt.safe {
			t.Errorf("pattern %q repl %q: safe = %v, want %v",
				tt.pattern, tt.replacement, got, tt.safe)
		}
	}
}

// TestQuickRIPSNeverPanics exercises robustness on arbitrary inputs.
func TestQuickRIPSNeverPanics(t *testing.T) {
	t.Parallel()
	eng := New(rulepack.MustCompile("generic"))
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

func TestExtendedClassSinks(t *testing.T) {
	t.Parallel()
	// RIPS's generic configuration covers the extended sink families too
	// (the real tool detects 20 vulnerability types).
	res := scan(t, `<?php
$cmd = $_GET['cmd'];
system("run " . $cmd);`)
	found := false
	for _, f := range res.Findings {
		if f.Class == analyzer.CmdInjection {
			found = true
		}
	}
	if !found {
		t.Fatalf("RIPS should flag the system() sink: %v", res.Findings)
	}
}

func TestEscapeshellargStopsRIPS(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
exec("ping " . escapeshellarg($_GET['h']));`)
	for _, f := range res.Findings {
		if f.Class == analyzer.CmdInjection {
			t.Fatalf("escapeshellarg should stop the trace: %v", res.Findings)
		}
	}
}
