package incremental

import (
	"testing"

	"repro/internal/phpast"
	"repro/internal/phpparse"
)

// parseAll parses a path→source map.
func parseAll(srcs map[string]string) map[string]*phpast.File {
	out := make(map[string]*phpast.File, len(srcs))
	for p, s := range srcs {
		out[p] = phpparse.Parse(p, s, phpparse.Options{})
	}
	return out
}

// components builds the graph and returns its components.
func components(t *testing.T, srcs map[string]string, isSuper func(string) bool) [][]string {
	t.Helper()
	return BuildGraph(parseAll(srcs), isSuper).Components()
}

// wantComponents asserts the exact component partition.
func wantComponents(t *testing.T, got [][]string, want ...[]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d components %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("component %d: got %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("component %d: got %v, want %v", i, got[i], want[i])
			}
		}
	}
}

func TestGraphIndependentFiles(t *testing.T) {
	got := components(t, map[string]string{
		"a.php": `<?php function a_fn($x) { echo $x; } $a = $_GET['a']; a_fn($a);`,
		"b.php": `<?php function b_fn($x) { echo $x; } $b = $_GET['b']; b_fn($b);`,
	}, nil)
	wantComponents(t, got, []string{"a.php"}, []string{"b.php"})
}

func TestGraphCrossFileCall(t *testing.T) {
	got := components(t, map[string]string{
		"lib.php":   `<?php function render($x) { echo $x; }`,
		"main.php":  `<?php render($_GET['q']);`,
		"other.php": `<?php echo 'static';`,
	}, nil)
	wantComponents(t, got, []string{"lib.php", "main.php"}, []string{"other.php"})
}

func TestGraphCallToUndeclaredBuiltinDoesNotLink(t *testing.T) {
	// Two files calling the same built-in must not be glued together:
	// only declared resources create edges.
	got := components(t, map[string]string{
		"a.php": `<?php echo trim($_GET['a']);`,
		"b.php": `<?php echo trim($_GET['b']);`,
	}, nil)
	wantComponents(t, got, []string{"a.php"}, []string{"b.php"})
}

func TestGraphInclude(t *testing.T) {
	got := components(t, map[string]string{
		"plugin.php":      `<?php include 'inc/helpers.php'; helper_echo($_GET['x']);`,
		"inc/helpers.php": `<?php function helper_echo($v) { echo $v; }`,
		"alone.php":       `<?php echo 1;`,
	}, nil)
	wantComponents(t, got, []string{"alone.php"}, []string{"inc/helpers.php", "plugin.php"})
}

func TestGraphIncludeBasenameSuffixLinksAllCandidates(t *testing.T) {
	// dirname(__FILE__) . '/util.php' style includes resolve by basename
	// suffix over the whole file list; every candidate must link.
	got := components(t, map[string]string{
		"main.php":      `<?php include dirname(__FILE__) . '/util.php';`,
		"a/util.php":    `<?php $u1 = 1;`,
		"b/util.php":    `<?php $u2 = 2;`,
		"unrelated.php": `<?php $u3 = 3;`,
	}, nil)
	wantComponents(t, got,
		[]string{"a/util.php", "b/util.php", "main.php"},
		[]string{"unrelated.php"})
}

func TestGraphSharedGlobal(t *testing.T) {
	isSuper := func(n string) bool { return n == "_GET" }
	got := components(t, map[string]string{
		"writer.php":     `<?php $shared = $_GET['x'];`,
		"reader.php":     `<?php echo $shared;`,
		"readonly_a.php": `<?php echo $never_written_a;`,
		"readonly_b.php": `<?php echo $never_written_b;`,
	}, isSuper)
	// writer+reader share $shared; the two read-only files read globals
	// nobody writes and stay independent.
	wantComponents(t, got,
		[]string{"reader.php", "writer.php"},
		[]string{"readonly_a.php"}, []string{"readonly_b.php"})
}

func TestGraphSuperglobalsDoNotLink(t *testing.T) {
	isSuper := func(n string) bool { return n == "_GET" }
	got := components(t, map[string]string{
		"a.php": `<?php $_GET['k'] = 'x'; echo $_GET['k'];`,
		"b.php": `<?php echo $_GET['k'];`,
	}, isSuper)
	wantComponents(t, got, []string{"a.php"}, []string{"b.php"})
}

func TestGraphGlobalKeywordInFunction(t *testing.T) {
	got := components(t, map[string]string{
		"def.php": `<?php function poison() { global $g; $g = $_GET['x']; }`,
		"use.php": `<?php echo $g;`,
	}, nil)
	wantComponents(t, got, []string{"def.php", "use.php"})
}

func TestGraphGLOBALSArray(t *testing.T) {
	got := components(t, map[string]string{
		"w.php": `<?php function f() { $GLOBALS['cfg'] = $_POST['c']; }`,
		"r.php": `<?php echo $cfg;`,
	}, nil)
	wantComponents(t, got, []string{"r.php", "w.php"})
}

func TestGraphClassAndMethodEdges(t *testing.T) {
	got := components(t, map[string]string{
		"class.php":      `<?php class Widget { var $d; function show() { echo $this->d; } }`,
		"user.php":       `<?php $w = new Widget(); $w->show();`,
		"methodname.php": `<?php $x->show();`, // unresolved receiver, same method name
		"free.php":       `<?php $z = 1;`,
	}, nil)
	// class.php+user.php via the class; methodname.php via the method
	// name (calling ->show() anywhere suppresses the uncalled pass for
	// every method named show).
	wantComponents(t, got,
		[]string{"class.php", "methodname.php", "user.php"},
		[]string{"free.php"})
}

func TestGraphExtends(t *testing.T) {
	got := components(t, map[string]string{
		"base.php":  `<?php class BaseW { var $v; }`,
		"child.php": `<?php class ChildW extends BaseW { }`,
		"free.php":  `<?php $z = 1;`,
	}, nil)
	wantComponents(t, got, []string{"base.php", "child.php"}, []string{"free.php"})
}

func TestGraphDuplicateDeclarationsLink(t *testing.T) {
	got := components(t, map[string]string{
		"one.php": `<?php function dup_fn() { return 1; }`,
		"two.php": `<?php function dup_fn() { return 2; }`,
	}, nil)
	wantComponents(t, got, []string{"one.php", "two.php"})
}

func TestGraphCallableDispatchLiteral(t *testing.T) {
	got := components(t, map[string]string{
		"cb.php":   `<?php function on_save($v) { echo $v; }`,
		"main.php": `<?php call_user_func('On_Save', $_GET['v']);`,
	}, nil)
	wantComponents(t, got, []string{"cb.php", "main.php"})
}

func TestGraphPHP4Constructor(t *testing.T) {
	// "new legacy" marks both a method and a function named "legacy" as
	// called; the declaring file must link to the instantiating file.
	got := components(t, map[string]string{
		"fn.php":  `<?php function legacy() { echo $_GET['x']; }`,
		"new.php": `<?php $o = new legacy();`,
	}, nil)
	wantComponents(t, got, []string{"fn.php", "new.php"})
}

func TestGraphClosureCaptureReadsGlobal(t *testing.T) {
	got := components(t, map[string]string{
		"writer.php":  `<?php $captured = $_GET['c'];`,
		"closure.php": `<?php $fn = function () use ($captured) { echo $captured; };`,
	}, nil)
	wantComponents(t, got, []string{"closure.php", "writer.php"})
}

func TestGraphClosureBodyIsNotGlobalScope(t *testing.T) {
	// Writes inside a closure body land in the closure's own scope;
	// they must not create a global edge.
	got := components(t, map[string]string{
		"closure.php": `<?php $fn = function () { $local_only = 1; };`,
		"reader.php":  `<?php echo $local_only;`,
	}, nil)
	wantComponents(t, got, []string{"closure.php"}, []string{"reader.php"})
}
