// Consistent-hash ring: the fleet's routing function. Every worker
// contributes 128 virtual nodes (points on a 64-bit circle hashed
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
// every configured member, and OwnersWhere walks clockwise past members
// the caller reports unusable. A dead worker's keys thus spill to the
// next owner and return home the moment it revives. Load does not
// enter ownership either: moving a lineage costs its incremental
// artifacts, so a busy worker keeps its keys.

package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// replicas is the virtual-node count per member: enough points that
// 10k keys spread within a few percent of fair share across 16 workers.
const replicas = 128

// ringPoint is one virtual node: a position on the hash circle and the
// member it belongs to.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is an immutable consistent-hash ring over a member set. Build
// with NewRing; all methods are safe for concurrent use.
type Ring struct {
	points  []ringPoint
	members []string
}

// NewRing builds a ring over members with replicas virtual nodes each.
// Duplicate and empty members are folded; member order does not affect
// ownership.
func NewRing(members []string) *Ring {
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
		for i := 0; i < replicas; i++ {
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
