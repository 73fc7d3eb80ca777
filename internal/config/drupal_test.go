package config_test

import (
	"testing"

	"repro/internal/analyzer"
	"repro/internal/rulepack"
)

func TestDrupalProfileLookups(t *testing.T) {
	t.Parallel()
	c := rulepack.MustCompile("drupal")

	if src, ok := c.FunctionSource("db_fetch_object"); !ok || src.Vector != analyzer.VectorDB {
		t.Errorf("db_fetch_object = %+v, %v", src, ok)
	}
	if src, ok := c.FunctionSource("variable_get"); !ok || src.Vector != analyzer.VectorDB {
		t.Errorf("variable_get = %+v, %v", src, ok)
	}
	if src, ok := c.FunctionSource("arg"); !ok || src.Vector != analyzer.VectorGET {
		t.Errorf("arg = %+v, %v", src, ok)
	}
	classes, ok := c.FunctionSanitizer("check_plain")
	if !ok || len(classes) != 1 || classes[0] != analyzer.XSS {
		t.Errorf("check_plain = %v, %v", classes, ok)
	}
	sinks := c.FunctionSinks("db_query")
	if len(sinks) != 1 || sinks[0].Vuln != analyzer.SQLi {
		t.Errorf("db_query sinks = %+v", sinks)
	}
	if _, ok := c.MethodSource("databasestatementinterface", "fetchobject"); !ok {
		t.Error("fetchObject method source missing")
	}
	// The generic layer still resolves.
	if _, ok := c.Superglobal("_GET"); !ok {
		t.Error("generic superglobals lost in Drupal merge")
	}
	if !c.Revert("decode_entities") || !c.Revert("stripslashes") {
		t.Error("reverts from both layers should resolve")
	}
}
