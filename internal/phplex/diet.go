package phplex

import (
	"sync"

	"repro/internal/phptoken"
)

// Allocation diet for the per-file hot path. Token values are already
// zero-copy: every Token.Text is a substring of the scanned source, so
// the source string itself is the per-scan arena and lexing a file
// allocates nothing per token beyond the slice that holds the stream.
// This file removes the remaining per-file garbage: the token slices
// are pooled (a scan lexes hundreds of files one after another and the
// parser is done with the stream as soon as the AST is built), and
// identifier case-folding gets an ASCII fast path plus an intern table
// so each distinct lowercase name is materialized once per scan instead
// of once per reference.

// tokenBufPool recycles token-stream backing arrays across files. Safe
// because Token fields are value types and substrings of the source:
// nothing retained from a parse aliases the slice's backing array.
var tokenBufPool sync.Pool

// getTokenBuf returns an empty token slice, reusing a pooled backing
// array when one is available.
func getTokenBuf(capHint int) []phptoken.Token {
	if v := tokenBufPool.Get(); v != nil {
		return (*(v.(*[]phptoken.Token)))[:0]
	}
	return make([]phptoken.Token, 0, capHint)
}

// PutTokens hands a token stream obtained from TokenizeCode back to
// the pool. The caller must not touch the slice afterwards. Putting a
// slice that was not obtained from TokenizeCode is allowed; it just
// donates the backing array.
func PutTokens(toks []phptoken.Token) {
	if cap(toks) == 0 {
		return
	}
	toks = toks[:0]
	tokenBufPool.Put(&toks)
}

// LowerASCII is strings.ToLower restricted to the ASCII identifiers the
// lexer and parser fold: when s is already lowercase (the overwhelmingly
// common case for PHP names) it is returned unchanged with no
// allocation.
func LowerASCII(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			return lowerASCIISlow(s, i)
		}
	}
	return s
}

func lowerASCIISlow(s string, first int) string {
	b := make([]byte, len(s))
	copy(b, s[:first])
	for i := first; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		b[i] = c
	}
	return string(b)
}

// Interner deduplicates lowercase identifier spellings. It is
// deliberately not synchronized: the parallel pipeline gives each
// worker its own shard, so the hot path stays lock-free.
type Interner struct {
	m map[string]string
}

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	return &Interner{m: make(map[string]string, 256)}
}

// Lower returns the canonical lowercase form of s, interned. A nil
// interner still folds case, it just doesn't deduplicate. A name that
// is already interned costs no allocation, whatever its case: a short
// name is folded into a stack buffer for the lookup.
func (in *Interner) Lower(s string) string {
	if in == nil {
		return LowerASCII(s)
	}
	var buf [64]byte
	if len(s) <= len(buf) {
		b := buf[:len(s)]
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			b[i] = c
		}
		if got, ok := in.m[string(b)]; ok {
			return got
		}
	}
	low := LowerASCII(s)
	if got, ok := in.m[low]; ok {
		return got
	}
	// When LowerASCII returned s itself, low is a substring of the
	// source file; interning it would pin the file's bytes for the
	// scan's lifetime, which is fine — sources are held by the scan
	// anyway.
	in.m[low] = low
	return low
}

// Len reports the number of distinct interned spellings.
func (in *Interner) Len() int {
	if in == nil {
		return 0
	}
	return len(in.m)
}
