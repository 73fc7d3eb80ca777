package taint

import (
	"context"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/rulepack"
)

func TestModelInventory(t *testing.T) {
	t.Parallel()
	eng := New(rulepack.MustCompile("wordpress"), DefaultOptions())
	info, err := eng.Model(&analyzer.Target{
		Name: "p",
		Files: []analyzer.SourceFile{
			{Path: "main.php", Content: `<?php
include 'lib/helpers.php';
add_action('init', 'p_hook');
function p_hook() { echo 1; }
function p_used($a, $b) { return $a; }
p_used(1, 2);
class Widget extends WP_Widget {
	public $title;
	public function render() {}
	public static function boot() {}
}
$w = new Widget();
$w->render();
`},
			{Path: "lib/helpers.php", Content: `<?php function p_helper() { return 1; }`},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(info.Functions) != 3 {
		t.Fatalf("functions = %d, want 3: %+v", len(info.Functions), info.Functions)
	}
	byName := map[string]FunctionInfo{}
	for _, f := range info.Functions {
		byName[f.Name] = f
	}
	if byName["p_used"].Params != 2 || !byName["p_used"].Called {
		t.Errorf("p_used = %+v, want 2 params, called", byName["p_used"])
	}
	if byName["p_hook"].Called {
		t.Error("p_hook is only referenced by name in add_action; it must count as uncalled (§III.B)")
	}
	if byName["p_helper"].Called {
		t.Error("p_helper is never called")
	}
	uncalled := info.Uncalled()
	if len(uncalled) != 2 {
		t.Errorf("uncalled = %+v, want p_hook and p_helper", uncalled)
	}

	cls, ok := info.Class("widget")
	if !ok {
		t.Fatal("class widget missing")
	}
	if cls.Extends != "wp_widget" || cls.Props != 1 || len(cls.Methods) != 2 {
		t.Errorf("class = %+v", cls)
	}
	var boot MethodInfoSummary
	for _, m := range cls.Methods {
		if m.Name == "boot" {
			boot = m
		}
	}
	if !boot.Static || boot.Called {
		t.Errorf("boot = %+v, want static, uncalled", boot)
	}

	if len(info.Includes) != 1 || info.Includes[0].To != "lib/helpers.php" {
		t.Errorf("includes = %+v", info.Includes)
	}
	if len(info.ParseErrors) != 0 {
		t.Errorf("parse errors = %v", info.ParseErrors)
	}
}

func TestModelParseErrorsSurface(t *testing.T) {
	t.Parallel()
	eng := New(rulepack.MustCompile("wordpress"), DefaultOptions())
	info, err := eng.Model(&analyzer.Target{
		Name:  "p",
		Files: []analyzer.SourceFile{{Path: "bad.php", Content: `<?php $x = ;`}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.ParseErrors) == 0 {
		t.Fatal("expected surfaced parse errors")
	}
}

func TestModelNilTarget(t *testing.T) {
	t.Parallel()
	eng := New(rulepack.MustCompile("wordpress"), DefaultOptions())
	if _, err := eng.Model(nil); err == nil {
		t.Fatal("nil target should error")
	}
	if _, err := eng.AnalyzeContext(context.Background(), nil, nil); err == nil {
		t.Fatal("nil target should error in Analyze too")
	}
}
