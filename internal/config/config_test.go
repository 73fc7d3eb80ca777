package config_test

import (
	"testing"
	"testing/quick"

	"repro/internal/analyzer"
	"repro/internal/config"
	"repro/internal/rulepack"
)

// genericProfile resolves the builtin generic pack to its profile.
func genericProfile(t *testing.T) config.Profile {
	t.Helper()
	p, err := rulepack.NewRegistry().Resolve("generic")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGenericProfileLookups(t *testing.T) {
	t.Parallel()
	c := rulepack.MustCompile("generic")

	if src, ok := c.Superglobal("_GET"); !ok || src.Vector != analyzer.VectorGET {
		t.Errorf("_GET lookup = %+v, %v", src, ok)
	}
	if src, ok := c.Superglobal("_POST"); !ok || src.Vector != analyzer.VectorPOST {
		t.Errorf("_POST lookup = %+v, %v", src, ok)
	}
	if _, ok := c.Superglobal("not_a_superglobal"); ok {
		t.Error("unexpected superglobal match")
	}

	if src, ok := c.FunctionSource("mysql_fetch_assoc"); !ok || src.Vector != analyzer.VectorDB {
		t.Errorf("mysql_fetch_assoc = %+v, %v", src, ok)
	}
	if src, ok := c.FunctionSource("fgets"); !ok || src.Vector != analyzer.VectorFile {
		t.Errorf("fgets = %+v, %v", src, ok)
	}

	classes, ok := c.FunctionSanitizer("htmlentities")
	if !ok {
		t.Fatal("htmlentities should be a sanitizer")
	}
	if len(classes) != 1 || classes[0] != analyzer.XSS {
		t.Errorf("htmlentities classes = %v, want [XSS]", classes)
	}
	classes, ok = c.FunctionSanitizer("intval")
	if !ok || len(classes) != len(analyzer.Classes()) {
		t.Errorf("intval classes = %v, %v; want all classes", classes, ok)
	}

	if !c.Revert("stripslashes") {
		t.Error("stripslashes should be a revert")
	}
	if c.Revert("htmlentities") {
		t.Error("htmlentities should not be a revert")
	}

	sinks := c.FunctionSinks("mysql_query")
	if len(sinks) != 1 || sinks[0].Vuln != analyzer.SQLi {
		t.Errorf("mysql_query sinks = %+v", sinks)
	}
	if !config.SinkSensitiveArg(sinks[0], 0) || config.SinkSensitiveArg(sinks[0], 1) {
		t.Error("mysql_query should be sensitive in arg 0 only")
	}
}

func TestMergeLayering(t *testing.T) {
	t.Parallel()
	base := config.Profile{
		Name:          "base",
		Sources:       []config.Source{{Kind: config.SuperglobalSource, Name: "_GET", Vector: analyzer.VectorGET}},
		ObjectClasses: map[string]string{"a": "ClassA"},
	}
	ext := config.Profile{
		Name:          "ext",
		Sanitizers:    []config.Sanitizer{{Name: "my_esc", Untaints: []analyzer.VulnClass{analyzer.XSS}}},
		ObjectClasses: map[string]string{"a": "ClassB", "b": "ClassC"},
	}
	merged := config.Merge("combo", base, ext)
	c := config.Compile(merged)

	if _, ok := c.Superglobal("_GET"); !ok {
		t.Error("base source lost in merge")
	}
	if _, ok := c.FunctionSanitizer("my_esc"); !ok {
		t.Error("extension sanitizer lost in merge")
	}
	if cls, _ := c.ObjectClass("a"); cls != "classb" {
		t.Errorf("object class a = %q, want classb (later profile wins)", cls)
	}
	if cls, _ := c.ObjectClass("b"); cls != "classc" {
		t.Errorf("object class b = %q, want classc", cls)
	}
}

func TestMethodLookupRules(t *testing.T) {
	t.Parallel()
	p := config.Profile{
		Name: "m",
		Sources: []config.Source{
			{Kind: config.MethodSource, Class: "wpdb", Name: "get_results", Vector: analyzer.VectorDB},
		},
		Sinks: []config.Sink{
			{Class: "wpdb", Name: "query", Vuln: analyzer.SQLi, Args: []int{0}},
		},
	}
	c := config.Compile(p)

	// Exact class match.
	if _, ok := c.MethodSource("wpdb", "get_results"); !ok {
		t.Error("exact class method source not found")
	}
	// Unknown receiver class: matched by method name.
	if _, ok := c.MethodSource("", "get_results"); !ok {
		t.Error("unknown-receiver method source should match by name")
	}
	// Non-matching class with no wildcard entry.
	if _, ok := c.MethodSource("other", "get_results"); ok {
		t.Error("mismatched class should not match")
	}
	if sinks := c.MethodSinks("", "query"); len(sinks) != 1 {
		t.Errorf("unknown-receiver method sink = %v, want 1", sinks)
	}
}

func TestCaseInsensitiveNames(t *testing.T) {
	t.Parallel()
	c := config.Compile(config.Profile{
		Name:       "case",
		Sanitizers: []config.Sanitizer{{Name: "ESC_HTML"}},
		Reverts:    []string{"StripSlashes"},
	})
	if _, ok := c.FunctionSanitizer("esc_html"); !ok {
		t.Error("sanitizer names should compile to lower case")
	}
	if !c.Revert("stripslashes") {
		t.Error("revert names should compile to lower case")
	}
}

// TestQuickMergeIdempotent checks that merging a profile with an empty
// profile preserves lookup behavior for arbitrary names.
func TestQuickMergeIdempotent(t *testing.T) {
	t.Parallel()
	generic := genericProfile(t)
	base := config.Compile(generic)
	merged := config.Compile(config.Merge("again", generic, config.Profile{Name: "empty"}))
	f := func(name string) bool {
		_, a := base.FunctionSanitizer(name)
		_, b := merged.FunctionSanitizer(name)
		if a != b {
			return false
		}
		_, a = base.Superglobal(name)
		_, b = merged.Superglobal(name)
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCompiledIsolation(t *testing.T) {
	t.Parallel()
	// Mutating the source profile after Compile must not affect lookups.
	p := genericProfile(t)
	c := config.Compile(p)
	p.Sanitizers = nil
	p.Reverts = nil
	if _, ok := c.FunctionSanitizer("htmlentities"); !ok {
		t.Error("compiled config should not alias the profile slices")
	}
}
