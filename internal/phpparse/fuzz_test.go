package phpparse

import (
	"testing"

	"repro/internal/phpast"
)

// parseFuzzSeeds seeds FuzzParse; the front-end golden test lexes and
// parses them too.
var parseFuzzSeeds = []string{
	"<?php echo $_GET['x'];",
	"<?php if ($a): ?>x<?php elseif ($b): ?>y<?php else: ?>z<?php endif;",
	"<?php class A extends B implements C { const X = 1; public $p; function m(&$a, $b = 2) {} }",
	"<?php foreach ($x as $k => &$v) { list($a, $b) = $v; }",
	"<?php switch ($x) { case 1: default: }",
	"<?php function f() { global $g; static $s = 0; return function () use (&$s) { return $s; }; }",
	"<?php try { } catch (E $e) { } finally { }",
	"<?php $a = <<<EOT\n$x->y z\nEOT;",
	"<?php {{{",
	"<?php $a ->",
	"<?php class",
	"<?php \x00\x01\x02",
}

// FuzzParse exercises the parser's robustness contract on arbitrary
// input: it must terminate, never panic, and produce statements whose
// line numbers stay within the file.
func FuzzParse(f *testing.F) {
	for _, s := range parseFuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file := Parse("fuzz.php", src, Options{})
		if file == nil {
			t.Fatal("Parse returned nil")
		}
		phpast.InspectStmts(file.Stmts, func(n phpast.Node) bool {
			if n.Pos() < 0 || n.Pos() > file.Lines+1 {
				t.Fatalf("node line %d outside file of %d lines", n.Pos(), file.Lines)
			}
			return true
		})
	})
}
