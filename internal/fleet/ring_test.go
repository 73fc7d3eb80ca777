package fleet

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/corpus"
)

// ringKeys generates n distinct digest-like keys.
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("sha256:%064x", i)
	}
	return keys
}

// owner returns key's owner on r ("" on an empty ring).
func owner(r *Ring, key string) string {
	if o := r.OwnersWhere(key, 1, nil); len(o) == 1 {
		return o[0]
	}
	return ""
}

func ringMembers(n int) []string {
	members := make([]string, n)
	for i := range members {
		members[i] = fmt.Sprintf("http://10.0.0.%d:8477", i+1)
	}
	return members
}

// TestRingUniformDistribution: for every fleet width 2..16, 10k keys
// spread within 2x of fair share on every member (with 128 vnodes the
// observed spread is far tighter; 2x is the correctness floor that
// catches a broken hash or a missing vnode loop).
func TestRingUniformDistribution(t *testing.T) {
	keys := ringKeys(10000)
	for n := 2; n <= 16; n++ {
		r := NewRing(ringMembers(n))
		counts := make(map[string]int, n)
		for _, k := range keys {
			o := owner(r, k)
			if o == "" {
				t.Fatalf("n=%d: no owner for %s", n, k)
			}
			counts[o]++
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d members own keys", n, len(counts))
		}
		fair := len(keys) / n
		for m, c := range counts {
			if c > 2*fair || c < fair/2 {
				t.Errorf("n=%d: member %s owns %d keys, fair share %d", n, m, c, fair)
			}
		}
	}
}

// TestRingMinimalRemapOnJoin: adding one member to an N-member ring
// moves at most ~1/(N+1) of the keys (slack 1.5x for hash variance);
// every moved key moves TO the new member, never between old members.
func TestRingMinimalRemapOnJoin(t *testing.T) {
	keys := ringKeys(10000)
	for n := 2; n <= 16; n++ {
		before := NewRing(ringMembers(n))
		after := NewRing(ringMembers(n + 1))
		joined := ringMembers(n + 1)[n]
		moved := 0
		for _, k := range keys {
			ob := owner(before, k)
			oa := owner(after, k)
			if ob == oa {
				continue
			}
			moved++
			if oa != joined {
				t.Fatalf("n=%d: key %s moved %s -> %s, not to the joining member %s", n, k, ob, oa, joined)
			}
		}
		budget := int(float64(len(keys)) / float64(n+1) * 1.5)
		if moved > budget {
			t.Errorf("n=%d: join moved %d keys, budget %d (~1/N)", n, moved, budget)
		}
	}
}

// TestRingMinimalRemapOnLeave: removing one member strands only that
// member's keys; every key owned by a survivor stays put.
func TestRingMinimalRemapOnLeave(t *testing.T) {
	keys := ringKeys(10000)
	for n := 3; n <= 16; n++ {
		members := ringMembers(n)
		before := NewRing(members)
		after := NewRing(members[:n-1])
		left := members[n-1]
		for _, k := range keys {
			ob := owner(before, k)
			oa := owner(after, k)
			if ob != left && ob != oa {
				t.Fatalf("n=%d: key %s owned by survivor %s moved to %s on leave of %s", n, k, ob, oa, left)
			}
		}
	}
}

// TestRingDeterministicOwnership: ownership is independent of member
// order and stable across ring rebuilds.
func TestRingDeterministicOwnership(t *testing.T) {
	members := ringMembers(5)
	shuffled := []string{members[3], members[0], members[4], members[2], members[1]}
	a := NewRing(members)
	b := NewRing(shuffled)
	c := NewRing(members)
	for _, k := range ringKeys(1000) {
		oa := owner(a, k)
		ob := owner(b, k)
		oc := owner(c, k)
		if oa != ob || oa != oc {
			t.Fatalf("key %s: owners diverge across identical member sets: %s / %s / %s", k, oa, ob, oc)
		}
	}
}

// TestRingOwnerWhere: a dead owner's keys fall to the next member
// clockwise, deterministically, and return when it revives; with no
// usable member OwnersWhere reports nothing.
func TestRingOwnerWhere(t *testing.T) {
	members := ringMembers(4)
	r := NewRing(members)
	notHome := func(home string) func(string) bool {
		return func(m string) bool { return m != home }
	}
	for _, k := range ringKeys(500) {
		home := owner(r, k)
		fallback1 := r.OwnersWhere(k, 1, notHome(home))
		if len(fallback1) != 1 || fallback1[0] == home {
			t.Fatalf("key %s: no fallback owner past %s", k, home)
		}
		fallback2 := r.OwnersWhere(k, 1, notHome(home))
		if len(fallback2) != 1 || fallback2[0] != fallback1[0] {
			t.Fatalf("key %s: fallback not deterministic: %v vs %v", k, fallback1, fallback2)
		}
		if back := owner(r, k); back != home {
			t.Fatalf("key %s: ownership did not return home after revival", k)
		}
	}
	if got := r.OwnersWhere("any", 1, func(string) bool { return false }); len(got) != 0 {
		t.Fatalf("OwnersWhere found owners %v with every member unusable", got)
	}
}

// TestRingEmptyAndDuplicates: an empty ring owns nothing; duplicate
// and empty member entries are folded.
func TestRingEmptyAndDuplicates(t *testing.T) {
	if o := owner(NewRing(nil), "k"); o != "" {
		t.Fatal("empty ring returned an owner")
	}
	r := NewRing([]string{"a", "", "a", "b", "b"})
	if got := r.Members(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Members() = %v, want [a b]", got)
	}
}

// pinnedOwnershipDigest is the SHA-256 of TestRingOwnershipPinned's
// "key=owner" lines. A change to it moves plugins off the workers that
// hold their incremental artifacts when a coordinator is upgraded.
const pinnedOwnershipDigest = "663e785b10e4c46dc9a759a8b36995069f5477ccd25925f83fac08a8a4957c6c"

// TestRingOwnershipPinned: over two fixed members, the owners of the
// paper corpus's 35 plugin lineages (in the form the server routes
// them by) and of 1,000 synthetic digests hash to the pinned digest.
func TestRingOwnershipPinned(t *testing.T) {
	v2012, _, err := corpus.Generate(corpus.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, tg := range v2012.Targets {
		keys = append(keys, "lineage|phpsafe|wordpress|"+tg.Name)
	}
	if len(keys) != 35 {
		t.Fatalf("corpus has %d plugins, want 35", len(keys))
	}
	keys = append(keys, ringKeys(1000)...)
	r := NewRing(ringMembers(2))
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, owner(r, k))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != pinnedOwnershipDigest {
		t.Fatalf("ownership digest = %s, want %s: routing keys moved between workers", got, pinnedOwnershipDigest)
	}
}
