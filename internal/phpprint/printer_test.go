package phpprint

import (
	"strings"
	"testing"

	"repro/internal/phpast"
	"repro/internal/phpparse"
)

// roundTrip parses src, prints it, reparses, and reprints: the two
// printed forms must be identical (print∘parse is idempotent past the
// first normalization).
func roundTrip(t *testing.T, src string) string {
	t.Helper()
	f1 := phpparse.Parse("a.php", src, phpparse.Options{})
	if len(f1.Errors) > 0 {
		t.Fatalf("first parse errors: %v", f1.Errors)
	}
	out1 := File(f1)
	f2 := phpparse.Parse("b.php", out1, phpparse.Options{})
	if len(f2.Errors) > 0 {
		t.Fatalf("reparse errors: %v\nprinted:\n%s", f2.Errors, out1)
	}
	out2 := File(f2)
	if out1 != out2 {
		t.Fatalf("round trip unstable:\nfirst:\n%s\nsecond:\n%s", out1, out2)
	}
	return out1
}

func TestRoundTripStatements(t *testing.T) {
	t.Parallel()
	sources := []string{
		`<?php $x = $_GET['id']; echo $x;`,
		`<?php if ($a > 1) { echo 'big'; } elseif ($a < 0) { echo 'neg'; } else { echo 'small'; }`,
		`<?php while ($x) { $x--; }`,
		`<?php do { $i++; } while ($i < 5);`,
		`<?php for ($i = 0; $i < 10; $i++) { continue; }`,
		`<?php foreach ($rows as $k => $v) { echo $v; }`,
		`<?php foreach ($rows as &$v) { $v = 1; }`,
		`<?php switch ($m) { case 'a': echo 1; break; default: echo 2; }`,
		`<?php function f(&$a, $b = 3, array $c = array()) { return $a + $b; }`,
		`<?php global $wpdb, $post;`,
		`<?php static $cache = array();`,
		`<?php unset($a, $b['k']);`,
		`<?php try { f(); } catch (Exception $e) { log_it($e); }`,
		`<?php throw new Exception('x');`,
		`<?php $f = function ($a) use (&$t) { $t += $a; };`,
	}
	for _, src := range sources {
		src := src
		t.Run(src[:min(30, len(src))], func(t *testing.T) {
			t.Parallel()
			roundTrip(t, src)
		})
	}
}

func TestRoundTripExpressions(t *testing.T) {
	t.Parallel()
	sources := []string{
		`<?php $a = 1 + 2 * 3 - 4 / 5 % 6;`,
		`<?php $a = ($x . 'b') . "c";`,
		`<?php $a = $b ? $c : $d;`,
		`<?php $a = $b ?: $d;`,
		`<?php $a = !$b && $c || $d;`,
		`<?php $a = (int) $x + (float) $y;`,
		`<?php $a = array('k' => 1, 2, 'x' => array(3));`,
		`<?php $a = isset($x) && !empty($y);`,
		`<?php list($a, $b) = explode(',', $s);`,
		`<?php $obj->method($x)->prop[2] = 5;`,
		`<?php Foo::bar($x); $y = Foo::$prop; $z = Foo::BAZ;`,
		`<?php $w = new WP_Query(array('p' => 1));`,
		`<?php $a = clone $b;`,
		`<?php $ok = $x instanceof WP_Post;`,
		`<?php include 'a.php'; require_once 'b.php';`,
		`<?php print $x;`,
		`<?php $a =& $b;`,
		`<?php $a = @file_get_contents('x');`,
		`<?php $a++; --$b;`,
		`<?php $a = $x << 2 | $y & 3 ^ $z;`,
	}
	for _, src := range sources {
		src := src
		t.Run(src[:min(30, len(src))], func(t *testing.T) {
			t.Parallel()
			roundTrip(t, src)
		})
	}
}

func TestRoundTripClasses(t *testing.T) {
	t.Parallel()
	roundTrip(t, `<?php
abstract class Base_Widget extends WP_Widget implements Renderable {
	const VERSION = '1.0';
	public $name = 'w';
	private static $count = 0;
	public function __construct($n) { $this->name = $n; }
	abstract protected function render();
	public static function boot() { return new self('x'); }
}`)
}

func TestRoundTripInterpolation(t *testing.T) {
	t.Parallel()
	// Interpolated strings normalize to concatenation and stay stable.
	out := roundTrip(t, `<?php $q = "SELECT * FROM {$wpdb->prefix}t WHERE id=$id";`)
	if !strings.Contains(out, "$wpdb->prefix") || !strings.Contains(out, "$id") {
		t.Fatalf("interpolation lost: %s", out)
	}
}

func TestRoundTripBacktick(t *testing.T) {
	t.Parallel()
	out := roundTrip(t, "<?php $r = `ls -la $dir`;")
	if !strings.Contains(out, "`") {
		t.Fatalf("backtick semantics lost: %s", out)
	}
}

func TestPrecedencePreserved(t *testing.T) {
	t.Parallel()
	// (1 + 2) * 3 must keep its parentheses through the round trip.
	out := roundTrip(t, `<?php $a = (1 + 2) * 3;`)
	if !strings.Contains(out, "(1 + 2) * 3") {
		t.Fatalf("precedence lost: %s", out)
	}
	out2 := roundTrip(t, `<?php $a = 1 + 2 * 3;`)
	if strings.Contains(out2, "(") {
		t.Fatalf("needless parens added: %s", out2)
	}
}

func TestStringQuoting(t *testing.T) {
	t.Parallel()
	roundTrip(t, `<?php $a = 'simple';`)
	roundTrip(t, `<?php $a = "with \"quotes\" and \$dollar";`)
	roundTrip(t, `<?php $a = 'it\'s';`)
	out := roundTrip(t, "<?php $a = \"line\\nbreak\";")
	if !strings.Contains(out, `\n`) {
		t.Fatalf("newline escape lost: %s", out)
	}
}

func TestExprHelper(t *testing.T) {
	t.Parallel()
	f := phpparse.Parse("x.php", `<?php $a = $b . 'c';`, phpparse.Options{})
	as := f.Stmts[0].(*phpast.ExprStmt).X
	if got := Expr(as); got != `$a = $b . 'c'` {
		t.Fatalf("Expr = %q", got)
	}
}

func TestStmtsHelper(t *testing.T) {
	t.Parallel()
	f := phpparse.Parse("x.php", `<?php echo 1; echo 2;`, phpparse.Options{})
	out := Stmts(f.Stmts)
	if !strings.Contains(out, "echo 1;") || !strings.Contains(out, "echo 2;") {
		t.Fatalf("Stmts = %q", out)
	}
	if strings.Contains(out, "<?php") {
		t.Fatal("Stmts should not emit the open tag")
	}
}

func TestRoundTripTortureSubset(t *testing.T) {
	t.Parallel()
	roundTrip(t, `<?php
function torture($a, &$b) {
	$sql = "SELECT * FROM {$GLOBALS['table']} WHERE id=$a";
	$rows = mysql_query($sql);
	while ($row = mysql_fetch_assoc($rows)) {
		foreach ($row as $k => $v) {
			echo '<td>' . htmlspecialchars($v) . '</td>';
		}
	}
	return isset($b) ? $b : null;
}
torture(1, $x);`)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
