package pipeline

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/phpast"
	"repro/internal/phpparse"
)

func sources(n int) []analyzer.SourceFile {
	files := make([]analyzer.SourceFile, n)
	for i := range files {
		files[i] = analyzer.SourceFile{
			Path: fmt.Sprintf("file_%02d.php", i),
			Content: fmt.Sprintf(
				"<?php function Handler%d($x) { $q = $_GET['q%d']; echo $q . $x; }", i, i),
		}
	}
	return files
}

// TestParseFilesMatchesSerial parses the same file set serially and on
// a saturated pool and requires structurally identical ASTs — the
// pipeline's determinism contract at the unit level.
func TestParseFilesMatchesSerial(t *testing.T) {
	files := sources(12)
	serial := ParseFiles(files, nil, nil, nil, nil, 1)
	pooled := ParseFiles(files, nil, nil, nil, nil, 8)
	if len(serial) != len(pooled) {
		t.Fatalf("serial parsed %d files, pooled %d", len(serial), len(pooled))
	}
	for path, want := range serial {
		got := pooled[path]
		if got == nil {
			t.Fatalf("pooled run dropped %s", path)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: pooled AST differs from serial", path)
		}
	}
}

// TestParseFilesReusesPreparsed verifies the incremental fast path: a
// preparsed AST is adopted by pointer identity and never re-parsed.
func TestParseFilesReusesPreparsed(t *testing.T) {
	files := sources(4)
	cached := phpparse.Parse(files[2].Path, files[2].Content, phpparse.Options{})
	pre := map[string]*phpast.File{files[2].Path: cached}
	got := ParseFiles(files, pre, nil, nil, nil, 8)
	if got[files[2].Path] != cached {
		t.Error("preparsed AST was not adopted by identity")
	}
	for _, sf := range files {
		if got[sf.Path] == nil {
			t.Errorf("%s missing from result", sf.Path)
		}
	}
}

// TestParseFilesFoldsNamesOnEveryWorker checks that names folded
// through different workers' interner shards all come out lowercased.
func TestParseFilesFoldsNamesOnEveryWorker(t *testing.T) {
	files := sources(16)
	m := ParseFiles(files, nil, nil, nil, nil, 8)
	// Every file declares its own distinct handler name; all 16 must be
	// folded no matter which worker parsed which file.
	for i, sf := range files {
		want := fmt.Sprintf("handler%d", i)
		fn, ok := m[sf.Path].Stmts[0].(*phpast.FuncDecl)
		if !ok || fn.Name != want {
			t.Errorf("%s: first statement = %#v, want func %q", sf.Path, m[sf.Path].Stmts[0], want)
		}
	}
}

// TestParseFilesEmptyAndClamped covers the degenerate shapes: zero
// files, and worker counts below one clamping to a serial run.
func TestParseFilesEmptyAndClamped(t *testing.T) {
	if m := ParseFiles(nil, nil, nil, nil, nil, 8); len(m) != 0 {
		t.Errorf("empty input: got %d files", len(m))
	}
	files := sources(3)
	m := ParseFiles(files, nil, nil, nil, nil, -1)
	if len(m) != 3 {
		t.Errorf("clamped run parsed %d files, want 3", len(m))
	}
}
