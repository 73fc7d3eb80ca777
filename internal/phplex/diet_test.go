package phplex

import (
	"strings"
	"testing"

	"repro/internal/phptoken"
)

func TestLowerASCII(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"already_lower", "already_lower"},
		{"MixedCase", "mixedcase"},
		{"UPPER", "upper"},
		{"$_GET", "$_get"},
		{"with-Ümlaut-É", "with-Ümlaut-É"}, // non-ASCII bytes pass through untouched
	}
	for _, c := range cases {
		if got := LowerASCII(c.in); got != c.want {
			t.Errorf("LowerASCII(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// The fast path must not allocate for already-lowercase input.
	s := "some_plugin_handler_name"
	if n := testing.AllocsPerRun(100, func() { _ = LowerASCII(s) }); n != 0 {
		t.Errorf("LowerASCII allocated %.1f times on lowercase input, want 0", n)
	}
}

func TestInternerDedupes(t *testing.T) {
	in := NewInterner()
	a := in.Lower("EchoHandler")
	b := in.Lower("ECHOHANDLER")
	c := in.Lower("echohandler")
	if a != "echohandler" || b != a || c != a {
		t.Fatalf("Lower results differ: %q %q %q", a, b, c)
	}
	if in.Len() != 1 {
		t.Errorf("Len = %d, want 1 distinct spelling", in.Len())
	}

	var nilIn *Interner
	if got := nilIn.Lower("AbC"); got != "abc" {
		t.Errorf("nil interner Lower = %q, want plain fold", got)
	}
	if nilIn.Len() != 0 {
		t.Errorf("nil interner Len = %d", nilIn.Len())
	}
}

func TestPutTokensRoundTrip(t *testing.T) {
	PutTokens(nil) // zero-cap donation is a no-op

	src := "<?php $x = $_GET['a']; echo $x;"
	toks := TokenizeCode(src, nil, nil, nil)
	if len(toks) == 0 {
		t.Fatal("no tokens")
	}
	// Snapshot before the put: the pool owns the backing array afterwards.
	want := make([]phptoken.Token, len(toks))
	copy(want, toks)
	PutTokens(toks)

	// The next lex must produce the same stream whether or not it got
	// the recycled backing array.
	again := TokenizeCode(src, nil, nil, nil)
	if len(again) != len(want) {
		t.Fatalf("relexed %d tokens, want %d", len(again), len(want))
	}
	for i := range again {
		if again[i].Kind != want[i].Kind || again[i].Text != want[i].Text {
			t.Fatalf("token %d differs after pool round trip: %+v vs %+v", i, again[i], want[i])
		}
	}
	if again[len(again)-1].Kind != phptoken.EOF {
		t.Error("stream does not end in EOF")
	}
}

// TestInternerHitDoesNotAllocate checks that looking up an interned name
// allocates nothing, whatever case it is spelled in.
func TestInternerHitDoesNotAllocate(t *testing.T) {
	in := NewInterner()
	for _, s := range []string{"WP_Query", "wp_query", "Mail_Subscribe"} {
		in.Lower(s)
		if n := testing.AllocsPerRun(10, func() { in.Lower(s) }); n != 0 {
			t.Errorf("Lower(%q) on a hit: %v allocations, want 0", s, n)
		}
	}
	if got := in.Lower("WP_QUERY"); got != "wp_query" {
		t.Errorf("Lower(WP_QUERY) = %q", got)
	}
	long := strings.Repeat("Ab", 40)
	if got := in.Lower(long); got != strings.ToLower(long) {
		t.Errorf("Lower of a long name = %q", got)
	}
}
