package rulepack_test

import (
	"testing"

	"repro/internal/pixy"
	"repro/internal/rulepack"
	"repro/internal/taint"
)

// TestBuiltinDigestsPinned pins the rule content of the builtin packs.
// Every engine folds Compiled.Digest into its options fingerprint, so an
// unchanged digest means no scan-cache or incremental key moved; a
// change here (including a hand edit to a builtin JSON file) must be
// deliberate, and invalidates every cached result for that rule set.
func TestBuiltinDigestsPinned(t *testing.T) {
	t.Parallel()
	cases := []struct {
		spec, digest string
	}{
		{"generic", "e22d7d24db386042c00bd9894ad5bb4f6729f38060d18124d948854f8f53b8f5"},
		{"wordpress", "33690061f85293bce3ba9bb0f4842551dda10fbadfe167e164770a52bd038bbf"},
		{"drupal", "6d76193c7a85a46bcbe334421104ed6d5cb871a2949b4595c118b176da85adf0"},
		{"wordpress,security-extended", "050ffd8047afdf6d214b396405b2948358a0a8aa7c632e6638c6e39df750cd55"},
		{"joomla", "92be92c5e06425289ed743a9ecb5a6b71d430688025e496ec4ceec4dc760b195"},
	}
	for _, c := range cases {
		if got := rulepack.MustCompile(rulepack.SplitSpec(c.spec)...).Digest(); got != c.digest {
			t.Errorf("packs %q: digest %s, want %s", c.spec, got, c.digest)
		}
	}
	// Pixy's 2007 profile is the generic pack minus four sanitizers; its
	// digest is only visible through the engine fingerprint.
	const pixyFP = "pixy|cfg:70fea3184ead75154f39515eb59b014b3cf712284e7f31ca8720a3323b5819f1"
	if got := pixy.New().OptionsFingerprint(); got != pixyFP {
		t.Errorf("pixy fingerprint %s, want %s", got, pixyFP)
	}
}

// TestFingerprintsDistinctAcrossPackSets asserts the cache-separation
// property: engines built from different pack sets must never share an
// options fingerprint, or scancache/incremental state would leak
// findings across rule sets.
func TestFingerprintsDistinctAcrossPackSets(t *testing.T) {
	t.Parallel()
	reg := rulepack.NewRegistry()
	specs := [][]string{
		{"generic"},
		{"wordpress"},
		{"wordpress", "security-extended"},
		{"generic", "security-extended"},
		{"joomla"},
	}
	seen := make(map[string][]string)
	for _, names := range specs {
		cfg, err := reg.Compile(names...)
		if err != nil {
			t.Fatal(err)
		}
		fp := taint.New(cfg, taint.DefaultOptions()).OptionsFingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("pack sets %v and %v share fingerprint %q", prev, names, fp)
		}
		seen[fp] = names
	}
}
