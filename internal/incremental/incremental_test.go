package incremental

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/taint"
)

// testEngine builds the default phpSAFE engine.
func testEngine(t testing.TB) *taint.Engine {
	t.Helper()
	tool, err := eval.BuildTool("phpsafe", "wordpress", eval.ToolOptions{})
	if err != nil {
		t.Fatalf("BuildTool: %v", err)
	}
	eng, ok := tool.(*taint.Engine)
	if !ok {
		t.Fatalf("BuildTool returned %T, want *taint.Engine", tool)
	}
	return eng
}

// memStore returns a memory-only store.
func memStore(t testing.TB, rec *obs.Recorder) *Store {
	t.Helper()
	s, err := NewStore("", rec)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return s
}

// resultJSON canonicalizes a result for byte comparison.
func resultJSON(t testing.TB, res *analyzer.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

func TestWarmScanIdenticalAndReuses(t *testing.T) {
	eng := testEngine(t)
	rec := obs.NewRecorder()
	store := memStore(t, rec)
	inc := New(eng, store, "test", rec)

	base := SyntheticTarget(8)
	coldRes, rep, err := inc.Analyze(context.Background(), base, nil)
	if err != nil {
		t.Fatalf("cold scan: %v", err)
	}
	if rep.ReusedFiles != 0 || rep.AnalyzedFiles != 8 {
		t.Fatalf("cold report: %+v", rep)
	}
	if len(coldRes.Findings) == 0 {
		t.Fatal("synthetic target produced no findings")
	}

	// Unchanged rescan: everything reuses, result identical.
	warmRes, rep, err := inc.Analyze(context.Background(), base, nil)
	if err != nil {
		t.Fatalf("warm scan: %v", err)
	}
	if rep.ReusedFiles != 8 || rep.AnalyzedFiles != 0 || rep.ReuseRatio != 1 {
		t.Fatalf("warm report: %+v", rep)
	}
	if resultJSON(t, warmRes) != resultJSON(t, coldRes) {
		t.Fatal("warm rescan result differs from cold scan")
	}

	// One-file-dirty rescan: exactly one component re-analyzed, and the
	// result matches a cold scan of the dirty target.
	dirty := Touch(base, 3, 1)
	warmDirty, rep, err := inc.Analyze(context.Background(), dirty, nil)
	if err != nil {
		t.Fatalf("warm dirty scan: %v", err)
	}
	if rep.ReusedFiles != 7 || rep.AnalyzedFiles != 1 {
		t.Fatalf("dirty report: %+v", rep)
	}
	if rep.InvalidatedFiles != 1 {
		t.Fatalf("dirty report invalidated=%d, want 1", rep.InvalidatedFiles)
	}
	coldDirty, err := eng.AnalyzeContext(context.Background(), dirty, nil)
	if err != nil {
		t.Fatalf("cold dirty scan: %v", err)
	}
	if resultJSON(t, warmDirty) != resultJSON(t, coldDirty) {
		t.Fatal("warm 1-dirty result differs from cold scan of same target")
	}

	// Metrics surfaced through obs.
	counters := rec.Snapshot().Counters
	for _, name := range []string{
		"inc_artifact_hits_total", "inc_artifacts_stored_total",
		"inc_files_reused_total", "inc_files_analyzed_total",
		"inc_files_invalidated_total",
	} {
		if counters[name] == 0 {
			t.Errorf("counter %s = 0, want nonzero", name)
		}
	}
}

func TestChangedFileInvalidatesDependents(t *testing.T) {
	eng := testEngine(t)
	store := memStore(t, nil)
	inc := New(eng, store, "test", nil)

	lib := analyzer.SourceFile{Path: "lib.php",
		Content: `<?php function emit($x) { echo $x; }`}
	app := analyzer.SourceFile{Path: "app.php",
		Content: `<?php emit($_GET['q']);`}
	loner := analyzer.SourceFile{Path: "loner.php",
		Content: `<?php echo strip_tags($_GET['z']);`}
	base := &analyzer.Target{Name: "dep", Files: []analyzer.SourceFile{lib, app, loner}}

	if _, _, err := inc.Analyze(context.Background(), base, nil); err != nil {
		t.Fatalf("cold: %v", err)
	}

	// Change lib.php: app.php depends on it and must be re-analyzed too;
	// loner.php is untouched and reuses.
	changed := &analyzer.Target{Name: "dep", Files: []analyzer.SourceFile{
		{Path: "lib.php", Content: `<?php function emit($x) { echo htmlspecialchars($x); }`},
		app, loner,
	}}
	res, rep, err := inc.Analyze(context.Background(), changed, nil)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if rep.AnalyzedFiles != 2 || rep.ReusedFiles != 1 {
		t.Fatalf("report after dependency change: %+v", rep)
	}
	// The sanitizer now guards the sink: the XSS finding in lib.php must
	// be gone. Silent reuse of app.php's stale outcome would keep it.
	for _, f := range res.Findings {
		if f.File == "lib.php" {
			t.Fatalf("stale finding survived dependency change: %+v", f)
		}
	}
	cold, err := eng.AnalyzeContext(context.Background(), changed, nil)
	if err != nil {
		t.Fatalf("cold changed: %v", err)
	}
	if resultJSON(t, res) != resultJSON(t, cold) {
		t.Fatal("warm result differs from cold after dependency change")
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	eng := testEngine(t)
	dir := t.TempDir()
	base := SyntheticTarget(4)

	s1, err := NewStore(dir, nil)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	cold, _, err := New(eng, s1, "test", nil).Analyze(context.Background(), base, nil)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}

	// A fresh store over the same directory — a new process — must reuse
	// everything from disk.
	s2, err := NewStore(dir, nil)
	if err != nil {
		t.Fatalf("NewStore(2): %v", err)
	}
	warm, rep, err := New(eng, s2, "test", nil).Analyze(context.Background(), base, nil)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if rep.ReusedFiles != 4 || rep.AnalyzedFiles != 0 {
		t.Fatalf("disk warm report: %+v", rep)
	}
	if resultJSON(t, warm) != resultJSON(t, cold) {
		t.Fatal("disk round-trip changed the result")
	}
}

func TestFingerprintSeparatesArtifacts(t *testing.T) {
	eng := testEngine(t)
	store := memStore(t, nil)
	base := SyntheticTarget(2)

	if _, _, err := New(eng, store, "fp-a", nil).Analyze(context.Background(), base, nil); err != nil {
		t.Fatalf("cold: %v", err)
	}
	_, rep, err := New(eng, store, "fp-b", nil).Analyze(context.Background(), base, nil)
	if err != nil {
		t.Fatalf("other fingerprint: %v", err)
	}
	if rep.ReusedFiles != 0 {
		t.Fatalf("artifacts leaked across fingerprints: %+v", rep)
	}
}

func TestPortableSummaryRoundTrip(t *testing.T) {
	// A target whose function summary carries every summary feature:
	// param-dependent sink flow, param-dependent return, sanitizer
	// filters and latent taint — exported, JSON-round-tripped, reused.
	eng := testEngine(t)
	store := memStore(t, nil)
	inc := New(eng, store, "test", nil)
	target := &analyzer.Target{Name: "rt", Files: []analyzer.SourceFile{
		{Path: "f.php", Content: `<?php
function pipeline($a, $b) {
    mysql_query("SELECT " . $a);
    $s = htmlspecialchars($b);
    return $s . $a;
}
`},
	}}
	cold, _, err := inc.Analyze(context.Background(), target, nil)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	warm, rep, err := inc.Analyze(context.Background(), target, nil)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if rep.ReusedFiles != 1 {
		t.Fatalf("expected reuse, got %+v", rep)
	}
	if resultJSON(t, warm) != resultJSON(t, cold) {
		t.Fatal("summary round trip changed the result")
	}
}
