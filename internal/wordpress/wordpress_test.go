package wordpress

import (
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/config"
	"repro/internal/phpparse"
	"repro/internal/rulepack"
)

func TestCompiledLookups(t *testing.T) {
	t.Parallel()
	cfg := rulepack.MustCompile("wordpress")

	// Method sources on wpdb.
	src, ok := cfg.MethodSource("wpdb", "get_results")
	if !ok || src.Vector != analyzer.VectorDB {
		t.Errorf("wpdb::get_results = %+v, %v", src, ok)
	}
	// WordPress function sources.
	if src, ok := cfg.FunctionSource("get_option"); !ok || src.Vector != analyzer.VectorDB {
		t.Errorf("get_option = %+v, %v", src, ok)
	}
	if src, ok := cfg.FunctionSource("get_query_var"); !ok || src.Vector != analyzer.VectorGET {
		t.Errorf("get_query_var = %+v, %v", src, ok)
	}
	// Escaping API.
	classes, ok := cfg.FunctionSanitizer("esc_html")
	if !ok || len(classes) != 1 || classes[0] != analyzer.XSS {
		t.Errorf("esc_html = %v, %v", classes, ok)
	}
	// All-class sanitizers.
	if classes, _ := cfg.FunctionSanitizer("sanitize_text_field"); len(classes) != len(analyzer.Classes()) {
		t.Errorf("sanitize_text_field = %v, want all classes", classes)
	}
	// Method sanitizer.
	if classes, ok := cfg.MethodSanitizer("wpdb", "prepare"); !ok || classes[0] != analyzer.SQLi {
		t.Errorf("wpdb::prepare = %v, %v", classes, ok)
	}
	// Method sinks.
	sinks := cfg.MethodSinks("wpdb", "query")
	if len(sinks) != 1 || sinks[0].Vuln != analyzer.SQLi {
		t.Errorf("wpdb::query sinks = %v", sinks)
	}
	// Generic layer still present underneath.
	if _, ok := cfg.Superglobal("_GET"); !ok {
		t.Error("generic superglobals lost in the WordPress merge")
	}
	if _, ok := cfg.FunctionSanitizer("htmlentities"); !ok {
		t.Error("generic sanitizers lost in the WordPress merge")
	}
	// Framework globals.
	if cls, ok := cfg.ObjectClass("wpdb"); !ok || cls != "wpdb" {
		t.Errorf("ObjectClass(wpdb) = %q, %v", cls, ok)
	}
	// Reverts from both layers.
	if !cfg.Revert("stripslashes") || !cfg.Revert("wp_unslash") {
		t.Error("revert functions missing")
	}
}

func TestStubSourceParses(t *testing.T) {
	t.Parallel()
	f := phpparse.Parse(StubPath, StubSource(), phpparse.Options{})
	if len(f.Errors) > 0 {
		t.Fatalf("stub parse errors: %v", f.Errors[:min(3, len(f.Errors))])
	}
	// The stub must declare the wpdb class and the escaping functions the
	// wordpress pack references.
	src := StubSource()
	for _, want := range []string{
		"class wpdb", "function esc_html", "function add_action",
		"function get_option", "function sanitize_text_field",
		"$wpdb = new wpdb()",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("stub missing %q", want)
		}
	}
}

func TestProfileEntriesAreLowerCaseable(t *testing.T) {
	t.Parallel()
	pack, ok := rulepack.NewRegistry().Get("wordpress")
	if !ok {
		t.Fatal("builtin wordpress pack missing")
	}
	p := pack.Profile()
	for _, s := range p.Sources {
		if s.Kind != config.SuperglobalSource && s.Name != strings.ToLower(s.Name) {
			t.Errorf("source %q should be lower-case", s.Name)
		}
	}
	for _, s := range p.Sinks {
		if s.Name != strings.ToLower(s.Name) {
			t.Errorf("sink %q should be lower-case", s.Name)
		}
	}
}
