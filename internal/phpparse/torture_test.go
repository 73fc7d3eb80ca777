package phpparse

import (
	"testing"

	"repro/internal/phpast"
)

// tortureSource mixes most of the supported PHP 5 surface in one file,
// in the style of a real WordPress plugin.
const tortureSource = `<?php
/**
 * Plugin Name: Torture Case
 * @package torture
 */

if (!defined('ABSPATH')) { exit; }

define('TORTURE_VERSION', '1.0.' . 2);

include_once dirname(__FILE__) . '/inc/helpers.php';
require 'inc/settings.php';

global $wpdb, $post;

$config = array(
	'limit'  => 10,
	'labels' => array('a' => 'Alpha', 'b' => 'Beta'),
	'flag'   => true,
);

list($first, , $third) = explode(',', 'x,y,z');

function torture_format(&$out, $value = null, array $extra = array()) {
	static $calls = 0;
	$calls++;
	if (is_null($value)) {
		return '';
	}
	$out .= (string) $value;
	return $out;
}

abstract class Torture_Base {
	const MODE = 'base';
	protected static $instances = 0;
	public $prefix = 't_';

	public function __construct() {
		self::$instances++;
	}

	abstract protected function render();

	public static function instances() {
		return self::$instances;
	}
}

final class Torture_Widget extends Torture_Base implements Countable {
	private $items = array();

	protected function render() {
		foreach ($this->items as $key => &$item) {
			echo "<li data-k=\"$key\">{$item['label']}</li>";
		}
		unset($item);
	}

	public function count() {
		return count($this->items);
	}

	public function add($label) {
		$this->items[] = array('label' => $label);
		return $this;
	}
}

$w = new Torture_Widget();
$w->add('one')->add('two');

switch ($config['limit']) {
	case 10:
	case 20:
		$mode = 'paged';
		break;
	default:
		$mode = 'all';
}

do {
	$config['limit']--;
} while ($config['limit'] > 8);

for ($i = 0, $j = 10; $i < $j; $i++, $j--) {
	continue;
}

$sql = <<<SQL
SELECT id, name
FROM {$wpdb->prefix}torture
WHERE mode = '$mode'
SQL;

$fn = function ($row) use (&$config) {
	return $row . $config['limit'];
};

try {
	throw new Exception('nope');
} catch (Exception $e) {
	$msg = $e->getMessage();
} finally {
	$done = true;
}

$ternary = isset($msg) ? $msg : 'fallback';
$short = $ternary ?: 'empty';
$math = 1 + 2 * 3 % 4 - (int) '5';
$bits = 0xFF & 0x0F | 1 << 2;
$cmp = ($math <=> 2) == 0 or $bits and $short;
?>
<div class="torture">
	<?php if ($mode == 'paged'): ?>
		<p>Paged mode</p>
	<?php elseif ($mode == 'all'): ?>
		<p>Everything</p>
	<?php else: ?>
		<p>Unknown</p>
	<?php endif; ?>
</div>
<?php
echo $short, ' & done';
`

func TestTortureFileParses(t *testing.T) {
	t.Parallel()
	f := Parse("torture.php", tortureSource, Options{})
	// The spaceship operator <=> is PHP 7; our PHP 5 parser degrades on
	// that single line, everything else must be clean.
	if len(f.Errors) > 2 {
		t.Fatalf("too many parse errors: %v", f.Errors)
	}

	var (
		funcs    int
		classes  int
		methods  int
		closures int
		heredocs int
		switches int
		tries    int
	)
	phpast.InspectStmts(f.Stmts, func(n phpast.Node) bool {
		switch x := n.(type) {
		case *phpast.FuncDecl:
			funcs++
		case *phpast.ClassDecl:
			classes++
			methods += len(x.Methods)
		case *phpast.Closure:
			closures++
		case *phpast.InterpString:
			if len(x.Parts) > 2 {
				heredocs++ // heredoc or rich interpolation
			}
		case *phpast.Switch:
			switches++
		case *phpast.Try:
			tries++
		}
		return true
	})
	if funcs != 1 {
		t.Errorf("functions = %d, want 1", funcs)
	}
	if classes != 2 {
		t.Errorf("classes = %d, want 2", classes)
	}
	if methods != 6 {
		t.Errorf("methods = %d, want 6", methods)
	}
	if closures != 1 {
		t.Errorf("closures = %d, want 1", closures)
	}
	if heredocs == 0 {
		t.Error("heredoc/interpolation missing from AST")
	}
	if switches != 1 || tries != 1 {
		t.Errorf("switch = %d, try = %d; want 1 each", switches, tries)
	}
}

func TestTortureClassDetails(t *testing.T) {
	t.Parallel()
	f := Parse("torture.php", tortureSource, Options{})
	var base, widget *phpast.ClassDecl
	phpast.InspectStmts(f.Stmts, func(n phpast.Node) bool {
		if cd, ok := n.(*phpast.ClassDecl); ok {
			switch cd.Name {
			case "torture_base":
				base = cd
			case "torture_widget":
				widget = cd
			}
			return false
		}
		return true
	})
	if base == nil || widget == nil {
		t.Fatal("classes not found")
	}
	if !base.Abstract {
		t.Error("Torture_Base should be abstract")
	}
	if len(base.Consts) != 1 || base.Consts[0].Name != "MODE" {
		t.Errorf("base consts = %+v", base.Consts)
	}
	if widget.Extends != "torture_base" {
		t.Errorf("widget extends %q", widget.Extends)
	}
	if len(widget.Implements) != 1 || widget.Implements[0] != "countable" {
		t.Errorf("widget implements %v", widget.Implements)
	}
	var abstractRender bool
	for _, m := range base.Methods {
		if m.Name == "render" && m.Abstract && m.Body == nil {
			abstractRender = true
		}
	}
	if !abstractRender {
		t.Error("abstract render() should have no body")
	}
}

func TestMethodChaining(t *testing.T) {
	t.Parallel()
	f := mustParse(t, `<?php $w->add('one')->add('two')->render();`)
	mc, ok := f.Stmts[0].(*phpast.ExprStmt).X.(*phpast.MethodCall)
	if !ok || mc.Name != "render" {
		t.Fatalf("outer = %#v, want render()", f.Stmts[0])
	}
	mid, ok := mc.Object.(*phpast.MethodCall)
	if !ok || mid.Name != "add" {
		t.Fatalf("middle = %#v", mc.Object)
	}
	inner, ok := mid.Object.(*phpast.MethodCall)
	if !ok || inner.Name != "add" {
		t.Fatalf("inner = %#v", mid.Object)
	}
}

func TestHeredocWithInterpolation(t *testing.T) {
	t.Parallel()
	src := "<?php $sql = <<<SQL\nSELECT * FROM {$wpdb->prefix}t WHERE id=$id\nSQL;\n"
	f := mustParse(t, src)
	as := f.Stmts[0].(*phpast.ExprStmt).X.(*phpast.Assign)
	is, ok := as.RHS.(*phpast.InterpString)
	if !ok {
		t.Fatalf("RHS = %T", as.RHS)
	}
	var props, vars int
	for _, p := range is.Parts {
		switch p.(type) {
		case *phpast.PropertyFetch:
			props++
		case *phpast.Var:
			vars++
		}
	}
	if props != 1 || vars != 1 {
		t.Fatalf("props = %d, vars = %d; want 1 each (parts %#v)", props, vars, is.Parts)
	}
}

func TestNestedFunctionDeclaration(t *testing.T) {
	t.Parallel()
	// PHP allows declaring functions inside functions; the parser must
	// handle the nesting even though the model treats them as global.
	f := mustParse(t, `<?php
function outer() {
	function inner() { return 1; }
	return inner();
}`)
	outer := f.Stmts[0].(*phpast.FuncDecl)
	if len(outer.Body) != 2 {
		t.Fatalf("outer body = %d stmts", len(outer.Body))
	}
	if _, ok := outer.Body[0].(*phpast.FuncDecl); !ok {
		t.Fatalf("inner decl = %T", outer.Body[0])
	}
}
