// Consistent-hash ring: the fleet's routing function. Every worker
// contributes Replicas virtual nodes (points on a 64-bit circle hashed
// from "addr#i"); a scan's routing key (its plugin lineage, or its
// content digest when unnamed) is hashed onto the circle and owned by
// the first virtual node clockwise from it. Two properties make this
// the right router for sharded caches:
//
//   - Determinism: ownership is a pure function of the member set and
//     the key, independent of insertion order, so every coordinator
//     (and every restart) routes a key to the same worker — a plugin's
//     next version always lands on the shard that holds its artifacts.
//   - Minimal remap: adding or removing one of N members moves only
//     ~1/N of the key space; every other key keeps its shard, so a
//     membership change does not flush the fleet's caches.
//
// Liveness is layered on top, not baked in: the ring always contains
// every configured member, and OwnerWhere walks clockwise past members
// the caller reports unusable. A dead worker's keys thus spill to the
// next owner and return home the moment it revives.

package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// DefaultReplicas is the virtual-node count per member (at weight 1)
// when the config leaves it unset: enough points that 10k keys spread
// within a few percent of fair share across 16 workers.
const DefaultReplicas = 128

// Weight bounds for load-aware vnode scaling. A member's vnode count is
// replicas * weight; clamping keeps one beefy worker from absorbing the
// whole key space and keeps every member with at least one vnode.
const (
	MinWeight = 1
	MaxWeight = 8
)

// ringPoint is one virtual node: a position on the hash circle and the
// member it belongs to.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is an immutable consistent-hash ring over a member set. Build
// with NewRing or NewWeightedRing; all methods are safe for concurrent
// use.
type Ring struct {
	points  []ringPoint
	members []string
}

// NewRing builds a ring over members with replicas virtual nodes each
// (DefaultReplicas when non-positive). Duplicate members are folded;
// member order does not affect ownership.
func NewRing(members []string, replicas int) *Ring {
	return NewWeightedRing(members, replicas, nil)
}

// NewWeightedRing builds a ring where each member contributes
// replicas * weight(member) virtual nodes. Weights are clamped to
// [MinWeight, MaxWeight] (a nil weight function, or one returning <= 0,
// means weight 1), so a worker reporting more capacity owns a
// proportionally larger — but bounded — key-space share. Because a
// member's vnodes at weight w are the prefix of its vnodes at weight
// w+1, raising a weight only pulls keys toward that member and lowering
// it only sheds them: a weight change never shuffles keys between two
// unrelated members.
func NewWeightedRing(members []string, replicas int, weight func(member string) int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{
		points:  make([]ringPoint, 0, len(uniq)*replicas),
		members: uniq,
	}
	for _, m := range uniq {
		w := MinWeight
		if weight != nil {
			if got := weight(m); got > w {
				w = got
			}
		}
		if w > MaxWeight {
			w = MaxWeight
		}
		for i := 0; i < replicas*w; i++ {
			r.points = append(r.points, ringPoint{hash: pointHash(m, i), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between virtual nodes is vanishingly rare;
		// break it by member name so ownership stays deterministic.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Members returns the ring's member set, sorted.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Owner returns the member owning key (false only on an empty ring).
func (r *Ring) Owner(key string) (string, bool) {
	return r.OwnerWhere(key, nil)
}

// OwnerWhere returns the first member clockwise from key's position
// that usable reports true for (a nil usable accepts every member).
// It returns false when no member qualifies.
func (r *Ring) OwnerWhere(key string, usable func(member string) bool) (string, bool) {
	owners := r.OwnersWhere(key, 1, usable)
	if len(owners) == 0 {
		return "", false
	}
	return owners[0], true
}

// OwnersWhere returns up to n distinct usable members in clockwise
// preference order from key's position: the first element is the key's
// owner, the second is where the key would land if the owner died — and
// therefore the natural target for a hedged duplicate dispatch, since a
// result computed there warms the shard that would inherit the key.
// A nil usable accepts every member; fewer than n members may qualify.
func (r *Ring) OwnersWhere(key string, n int, usable func(member string) bool) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := keyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	tried := make(map[string]bool, len(r.members))
	var owners []string
	for i := 0; i < len(r.points) && len(tried) < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if tried[p.member] {
			continue
		}
		tried[p.member] = true
		if usable == nil || usable(p.member) {
			owners = append(owners, p.member)
			if len(owners) == n {
				break
			}
		}
	}
	return owners
}

// pointHash positions one virtual node: SHA-256 of "member#i"
// truncated to 64 bits. SHA-256 keeps the point set statistically
// uniform even for near-identical member addresses (":8478"/":8479").
func pointHash(member string, i int) uint64 {
	sum := sha256.Sum256([]byte(member + "#" + strconv.Itoa(i)))
	return binary.BigEndian.Uint64(sum[:8])
}

// keyHash positions a routing key: a lineage string or a hex content
// digest, hashed so either spreads uniformly over the circle.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}
