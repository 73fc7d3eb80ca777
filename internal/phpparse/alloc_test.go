package phpparse

import (
	"runtime"
	"testing"

	"repro/internal/corpus"
	"repro/internal/phpast"
)

// parseAllocsBound is the parse allocation gate's bound: 55 allocations
// were measured per parse of benchParseSource when it was set (also
// under the race detector), plus 3% headroom. The parser before its
// node slabs were sized from the token stream took 63.
const parseAllocsBound = 57

// TestParseAllocsGate fails when lexing and parsing a small widget class
// allocates more than parseAllocsBound times. Lower the bound after a
// change that makes the front end allocate less.
func TestParseAllocsGate(t *testing.T) {
	Parse("bench.php", benchParseSource, Options{}) // warm the token pool
	allocs := testing.AllocsPerRun(100, func() {
		Parse("bench.php", benchParseSource, Options{})
	})
	t.Logf("%v allocations per parse (bound %d)", allocs, parseAllocsBound)
	if allocs > parseAllocsBound {
		t.Fatalf("a parse allocates %v times, want at most %d", allocs, parseAllocsBound)
	}
}

// astRetentionBound is the AST retention gate's bound in bytes: the
// parser before its slabs were sized from the token stream left
// 36,407,240 bytes of live heap for the ASTs of both default-corpus
// snapshots, and the bound is that figure plus 1%. The daemon caches
// ASTs, so what a parse leaves live is kept for as long as the cache
// holds the file.
const astRetentionBound = 36_407_240 * 101 / 100

// TestASTRetentionGate parses every file of both default-corpus
// snapshots, keeps the ASTs, and bounds the heap they keep live after a
// collection. It fails when slab sizing or slice growth leaves more
// unused capacity behind than the parser before the slabs did.
func TestASTRetentionGate(t *testing.T) {
	c12, c14 := corpus.MustGenerate()
	var names, sources []string
	for _, c := range []*corpus.Corpus{c12, c14} {
		for _, target := range c.Targets {
			for _, sf := range target.Files {
				names = append(names, target.Name+"/"+sf.Path)
				sources = append(sources, sf.Content)
			}
		}
	}
	files := make([]*phpast.File, len(sources))
	before := liveHeap()
	for i, src := range sources {
		files[i] = Parse(names[i], src, Options{})
	}
	retained := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(files)
	t.Logf("%d ASTs retain %d bytes (bound %d)", len(files), retained, astRetentionBound)
	if retained > astRetentionBound {
		t.Fatalf("the corpus ASTs retain %d bytes, want at most %d", retained, astRetentionBound)
	}
}

// liveHeap returns the bytes of live heap objects after a full
// collection. Two collections also empty sync.Pool's victim cache, so
// the lexer's pooled token buffers are not counted.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
