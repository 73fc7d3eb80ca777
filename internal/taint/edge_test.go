package taint

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/analyzer"
	"repro/internal/rulepack"
)

// Edge-case coverage for the analysis stage beyond the §III scenarios in
// engine_test.go.

func TestArrayAppendTaintsContainer(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$items = array();
$items[] = $_GET['x'];
foreach ($items as $it) { echo $it; }`)
	wantFindings(t, res, 1, 0)
}

func TestArrayKeyedStoreTaintsContainer(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$data = array('safe' => 'ok');
$data['user'] = $_POST['v'];
echo $data['anything'];`)
	// Coarse array model: the container carries the element taint.
	wantFindings(t, res, 1, 0)
}

func TestListDestructuringPropagates(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
list($a, $b) = array($_GET['x'], 'safe');
echo $a;`)
	wantFindings(t, res, 1, 0)
}

func TestForeachKeyTainted(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
foreach ($_POST as $key => $value) {
	echo '<li>' . $key . '</li>';
}`)
	wantFindings(t, res, 1, 0)
}

func TestCompoundConcatChain(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$html = '<ul>';
$html .= '<li>' . $_GET['a'] . '</li>';
$html .= '</ul>';
echo $html;`)
	wantFindings(t, res, 1, 0)
}

func TestSuppressionOperatorKeepsTaint(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php echo @$_GET['x'];`)
	wantFindings(t, res, 1, 0)
}

func TestTernaryBothArms(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$v = isset($_GET['x']) ? $_GET['x'] : 'default';
echo $v;`)
	wantFindings(t, res, 1, 0)

	res2 := scan(t, `<?php
$v = $_GET['x'] ?: 'default';
echo $v;`)
	wantFindings(t, res2, 1, 0)
}

func TestStaticPropertyFlow(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
class Store {
	public static $cache;
	static function put() { Store::$cache = $_GET['q']; }
	static function show() { echo Store::$cache; }
}
Store::put();
Store::show();`)
	wantFindings(t, res, 1, 0)
}

func TestParentCallResolution(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
class Base {
	function emit($s) { echo $s; }
}
class Child extends Base {
	function emit($s) { parent::emit('<b>' . $s . '</b>'); }
}
$c = new Child();
$c->emit($_COOKIE['pref']);`)
	wantFindings(t, res, 1, 0)
}

func TestConstructorTaintsProperty(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
class Form {
	public $value;
	function __construct($v) { $this->value = $v; }
	function render() { echo $this->value; }
}
$f = new Form($_POST['input']);
$f->render();`)
	wantFindings(t, res, 1, 0)
}

func TestIncludeCycleTerminates(t *testing.T) {
	t.Parallel()
	res := scanFiles(t, map[string]string{
		"a.php": `<?php include 'b.php'; echo $fromB;`,
		"b.php": `<?php include 'a.php'; $fromB = $_GET['x'];`,
	})
	if res == nil {
		t.Fatal("nil result")
	}
	// Mutual inclusion must terminate; the flow through b is visible.
	xss := 0
	for _, f := range res.Findings {
		if f.Class == analyzer.XSS {
			xss++
		}
	}
	if xss == 0 {
		t.Error("cross-include flow missed")
	}
}

func TestSprintfPropagates(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$msg = sprintf('<p>Hello %s</p>', $_GET['name']);
echo $msg;`)
	wantFindings(t, res, 1, 0)
}

func TestImplodePropagates(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$parts = $_POST['tags'];
echo implode(', ', $parts);`)
	wantFindings(t, res, 1, 0)
}

func TestUrlencodeSanitizesXSS(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
echo '<a href="?q=' . urlencode($_GET['q']) . '">search</a>';`)
	wantFindings(t, res, 0, 0)
}

func TestJsonEncodeSanitizesXSS(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php echo json_encode($_GET['data']);`)
	wantFindings(t, res, 0, 0)
}

func TestMd5NeutralizesBoth(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$h = md5($_GET['token']);
echo $h;
mysql_query("SELECT * FROM t WHERE h='$h'");`)
	wantFindings(t, res, 0, 0)
}

func TestSwitchCasesAllWalked(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
switch ($_GET['tab']) {
case 'a':
	echo $_GET['a'];
	break;
case 'b':
	echo $_GET['b'];
	break;
}`)
	wantFindings(t, res, 2, 0)
}

func TestWhileLoopBodyWalked(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
while ($row = mysql_fetch_assoc($res)) {
	echo $row['name'];
}`)
	wantFindings(t, res, 1, 0)
}

func TestVariableVariableIsOpaque(t *testing.T) {
	t.Parallel()
	// $$name cannot be resolved statically; the engine must neither
	// crash nor taint.
	res := scan(t, `<?php
$name = 'x';
$$name = $_GET['x'];
echo $x;`)
	wantFindings(t, res, 0, 0)
}

func TestSelfStaticCall(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
class Util {
	static function show($s) { echo $s; }
	static function run() { self::show($_GET['v']); }
}
Util::run();`)
	wantFindings(t, res, 1, 0)
}

func TestEchoInsideAlternativeSyntax(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php if (true): ?>
<p><?= $_GET['inline'] ?></p>
<?php endif; ?>`)
	wantFindings(t, res, 1, 0)
}

func TestHeredocSQLInjection(t *testing.T) {
	t.Parallel()
	src := "<?php\n$id = $_GET['id'];\n$sql = <<<SQL\nSELECT * FROM t WHERE id = $id\nSQL;\nmysql_query($sql);\n"
	res := scan(t, src)
	wantFindings(t, res, 0, 1)
}

func TestReturnInsideBranches(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function pick($which) {
	if ($which) {
		return $_GET['a'];
	}
	return 'safe';
}
echo pick(true);`)
	wantFindings(t, res, 1, 0)
}

func TestTraceFileTracksIncludes(t *testing.T) {
	t.Parallel()
	res := scanFiles(t, map[string]string{
		"main.php": `<?php
include 'lib.php';
echo $loaded;`,
		"lib.php": `<?php $loaded = $_GET['x'];`,
	})
	wantFindings(t, res, 1, 0)
	f := res.Findings[0]
	if f.File != "main.php" {
		t.Errorf("sink file = %s, want main.php", f.File)
	}
	foundLib := false
	for _, step := range f.Trace {
		if step.File == "lib.php" {
			foundLib = true
		}
	}
	if !foundLib {
		t.Errorf("trace should pass through lib.php: %v", f.Trace)
	}
}

// TestQuickEngineNeverPanics feeds arbitrary text through the full
// engine: parse failures must degrade, never crash (robustness, §IV.A).
func TestQuickEngineNeverPanics(t *testing.T) {
	t.Parallel()
	eng := newTestEngine()
	f := func(body string) bool {
		res, err := eng.AnalyzeContext(context.Background(), &analyzer.Target{
			Name:  "fuzz",
			Files: []analyzer.SourceFile{{Path: "fuzz.php", Content: "<?php " + body}},
		}, nil)
		return err == nil && res != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickManyEchoesBounded checks findings stay bounded by the number
// of echo statements for generated inputs.
func TestQuickManyEchoesBounded(t *testing.T) {
	t.Parallel()
	eng := newTestEngine()
	f := func(n uint8) bool {
		count := int(n%20) + 1
		var sb strings.Builder
		sb.WriteString("<?php\n")
		for i := 0; i < count; i++ {
			fmt.Fprintf(&sb, "echo $_GET['k%d'];\n", i)
		}
		res, err := eng.AnalyzeContext(context.Background(), &analyzer.Target{
			Name:  "gen",
			Files: []analyzer.SourceFile{{Path: "gen.php", Content: sb.String()}},
		}, nil)
		return err == nil && len(res.Findings) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// newTestEngine builds the default-configured engine for edge tests.
func newTestEngine() *Engine {
	return New(rulepack.MustCompile("wordpress"), DefaultOptions())
}

func TestGlobalsArrayAccess(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$GLOBALS['payload'] = $_GET['p'];
function show() {
	echo $GLOBALS['payload'];
}
show();`)
	wantFindings(t, res, 1, 0)
}

func TestGlobalsArrayUnknownKeySafe(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
$k = 'dyn';
echo $GLOBALS[$k];
echo $GLOBALS['never_assigned'];`)
	wantFindings(t, res, 0, 0)
}

func TestCallUserFuncDispatch(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function cb_show($m) { echo $m; }
call_user_func('cb_show', $_GET['m']);`)
	wantFindings(t, res, 1, 0)
}

func TestArrayMapDispatch(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function cb_wrap($s) { return '<li>' . $s . '</li>'; }
$items = array_map('cb_wrap', $_POST['items']);
foreach ($items as $li) { echo $li; }`)
	wantFindings(t, res, 1, 0)
}

func TestCallUserFuncArrayDispatch(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
function cb_put($a, $b) { echo $b; }
call_user_func_array('cb_put', array('x', $_COOKIE['c']));`)
	wantFindings(t, res, 1, 0)
}

func TestCallableDispatchUnknownNameSafe(t *testing.T) {
	t.Parallel()
	res := scan(t, `<?php
call_user_func($dynamic, $_GET['x']);
call_user_func('no_such_function', 'literal');`)
	// Unresolvable callables degrade to pass-through without findings.
	wantFindings(t, res, 0, 0)
}
