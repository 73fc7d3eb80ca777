package phptoken

import (
	"strings"
	"testing"
)

func TestLookupKeyword(t *testing.T) {
	t.Parallel()
	tests := []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"if", KwIf, true},
		{"IF", KwIf, true},
		{"Echo", KwEcho, true},
		{"die", KwExit, true},
		{"exit", KwExit, true},
		{"include_once", KwIncludeOnce, true},
		{"and", KwLogicalAnd, true},
		{"notakeyword", 0, false},
		{"", 0, false},
		{"iff", 0, false},
	}
	for _, tt := range tests {
		got, ok := LookupKeyword(tt.in)
		if ok != tt.ok || (ok && got != tt.want) {
			t.Errorf("LookupKeyword(%q) = %v, %v; want %v, %v", tt.in, got, ok, tt.want, tt.ok)
		}
	}
}

func TestTokenPredicates(t *testing.T) {
	t.Parallel()
	if !(Token{Kind: KwClass}).IsKeyword() {
		t.Error("class should be a keyword")
	}
	if (Token{Kind: Ident}).IsKeyword() {
		t.Error("ident is not a keyword")
	}
	if !(Token{Kind: Whitespace}).IsTrivia() || !(Token{Kind: Comment}).IsTrivia() ||
		!(Token{Kind: DocComment}).IsTrivia() {
		t.Error("whitespace/comments are trivia")
	}
	if (Token{Kind: Variable}).IsTrivia() {
		t.Error("variable is not trivia")
	}
	if !(Token{Kind: IntCast}).IsCast() || (Token{Kind: LParen}).IsCast() {
		t.Error("cast predicate wrong")
	}
}

func TestKindStringStability(t *testing.T) {
	t.Parallel()
	// The names phpSAFE's paper mentions must be PHP-compatible.
	fixed := map[Kind]string{
		Variable:    "T_VARIABLE",
		Arrow:       "T_OBJECT_OPERATOR",
		DoubleColon: "T_DOUBLE_COLON",
		KwIf:        "T_IF",
		KwUnset:     "T_UNSET",
		KwGlobal:    "T_GLOBAL",
		KwReturn:    "T_RETURN",
		InlineHTML:  "T_INLINE_HTML",
	}
	for k, want := range fixed {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if s := Kind(-1).String(); !strings.Contains(s, "-1") {
		t.Errorf("out-of-range kind = %q", s)
	}
	if s := Kind(KindCount() + 5).String(); !strings.Contains(s, "Kind(") {
		t.Errorf("out-of-range kind = %q", s)
	}
}

func TestTokenString(t *testing.T) {
	t.Parallel()
	tok := Token{Kind: Variable, Text: "$x", Line: 7}
	s := tok.String()
	if !strings.Contains(s, "T_VARIABLE") || !strings.Contains(s, "$x") || !strings.Contains(s, "7") {
		t.Errorf("Token.String() = %q", s)
	}
}

func TestAllKeywordsRoundTrip(t *testing.T) {
	t.Parallel()
	// Every keyword kind maps to a non-empty distinct name.
	seen := make(map[string]Kind)
	for k := KwAbstract; k <= KwLogicalXor; k++ {
		name := k.String()
		if name == "" {
			t.Errorf("keyword kind %d has empty name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("name %q reused by %d and %d", name, prev, k)
		}
		seen[name] = k
	}
}

// TestLookupKeywordDoesNotAllocate checks that keyword lookup folds case
// without allocating, for keywords and plain identifiers alike.
func TestLookupKeywordDoesNotAllocate(t *testing.T) {
	for _, ident := range []string{"Function", "WP_Query", "ABSPATH", "include_ONCE", "a_very_long_identifier"} {
		if n := testing.AllocsPerRun(10, func() { LookupKeyword(ident) }); n != 0 {
			t.Errorf("LookupKeyword(%q): %v allocations, want 0", ident, n)
		}
	}
	if k, ok := LookupKeyword("Include_Once"); !ok || k != KwIncludeOnce {
		t.Errorf("LookupKeyword(Include_Once) = %v, %v", k, ok)
	}
	if _, ok := LookupKeyword("include_onces"); ok {
		t.Error("include_onces is not a keyword")
	}
}
