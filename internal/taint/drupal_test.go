package taint

import (
	"context"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/rulepack"
)

// drupalEngine builds phpSAFE configured for Drupal modules (§VI).
func drupalEngine() *Engine {
	return New(rulepack.MustCompile("drupal"), DefaultOptions())
}

// scanDrupal analyzes one Drupal module file.
func scanDrupal(t *testing.T, src string) *analyzer.Result {
	t.Helper()
	res, err := drupalEngine().AnalyzeContext(context.Background(), &analyzer.Target{
		Name:  "test-module",
		Files: []analyzer.SourceFile{{Path: "test.module", Content: src}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDrupalDBFetchEcho(t *testing.T) {
	t.Parallel()
	res := scanDrupal(t, `<?php
function mymodule_block_view() {
	$result = db_query("SELECT title FROM {node} LIMIT 5");
	$row = db_fetch_object($result);
	echo '<h3>' . $row->title . '</h3>';
}`)
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %v, want 1 DB XSS", res.Findings)
	}
	f := res.Findings[0]
	if f.Class != analyzer.XSS || f.Vector != analyzer.VectorDB {
		t.Errorf("finding = %v, want DB XSS", f)
	}
}

func TestDrupalCheckPlainSanitizes(t *testing.T) {
	t.Parallel()
	res := scanDrupal(t, `<?php
echo check_plain($_GET['q']);
echo filter_xss(arg(1));`)
	if len(res.Findings) != 0 {
		t.Fatalf("findings = %v, want none (check/filter API)", res.Findings)
	}
}

func TestDrupalSQLiSink(t *testing.T) {
	t.Parallel()
	res := scanDrupal(t, `<?php
$nid = $_GET['nid'];
db_query("SELECT * FROM {node} WHERE nid = $nid");`)
	if len(res.Findings) != 1 || res.Findings[0].Class != analyzer.SQLi {
		t.Fatalf("findings = %v, want 1 SQLi", res.Findings)
	}
}

func TestDrupalArgIsGETSource(t *testing.T) {
	t.Parallel()
	res := scanDrupal(t, `<?php
$section = arg(2);
drupal_set_message('Viewing ' . $section);`)
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %v, want 1", res.Findings)
	}
	if res.Findings[0].Vector != analyzer.VectorGET {
		t.Errorf("vector = %v, want GET", res.Findings[0].Vector)
	}
	if res.Findings[0].Sink != "drupal_set_message" {
		t.Errorf("sink = %q", res.Findings[0].Sink)
	}
}

func TestDrupalVariableGetSecondOrder(t *testing.T) {
	t.Parallel()
	res := scanDrupal(t, `<?php
$motd = variable_get('site_motd', '');
echo '<div class="motd">' . $motd . '</div>';`)
	if len(res.Findings) != 1 || res.Findings[0].Vector != analyzer.VectorDB {
		t.Fatalf("findings = %v, want 1 DB-vector XSS", res.Findings)
	}
}
