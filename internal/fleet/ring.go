// Package fleet scales HERD past static sharding: a consistent-hash
// ring places keys on replica sets of HERD servers, clients fail over
// between replicas when a shard crashes, and shards can join or leave
// a live deployment with background key migration. This is the fleet
// deployment story the paper leaves to "standard practice" (Section 7
// discusses scale-out only as per-machine throughput times machine
// count); fleet supplies the routing, replication and failover
// machinery needed to actually run that fleet.
package fleet

import (
	"sort"

	"herdkv/internal/kv"
)

// ringPoint is one virtual node: a position on the hash circle owned by
// a shard.
type ringPoint struct {
	hash  uint64
	shard int
}

// Ring is a consistent-hash ring with virtual nodes. Placement is fully
// determined by (seed, vnodes, member set): two rings built from the
// same cluster seed with the same members agree on every key, and
// adding or removing one shard moves only the keys adjacent to that
// shard's virtual nodes.
//
// Rings are immutable once built; Deployment swaps whole rings
// atomically when a membership change commits, so in-flight routing
// decisions are never half-updated. Because a ring never changes, every
// point's replica walk is computed once when the ring is built (sets),
// and Replicas only binary-searches the key's point and slices it.
type Ring struct {
	seed   uint64
	vnodes int
	points []ringPoint // sorted by (hash, shard)
	shards []int       // member shard ids, ascending
	// sets holds, for point i, every member shard in the order a
	// clockwise walk from that point first meets it:
	// sets[i*len(shards) : (i+1)*len(shards)]. Replicas hands out
	// read-only prefixes of these rows.
	sets []int
}

// NewRing returns an empty ring. Virtual-node positions derive from
// seed, so distinct cluster seeds give distinct placements.
func NewRing(seed uint64, vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = 1
	}
	return &Ring{seed: seed, vnodes: vnodes}
}

// pointHash positions virtual node v of a shard on the circle.
func (r *Ring) pointHash(shard, v int) uint64 {
	return kv.FromUint64(uint64(shard)<<20 | uint64(v)).Hash64(r.seed)
}

// WithShard returns a copy of the ring with shard added (no-op copy if
// already a member).
func (r *Ring) WithShard(shard int) *Ring {
	nr := r.clone()
	for _, s := range nr.shards {
		if s == shard {
			return nr
		}
	}
	nr.shards = append(nr.shards, shard)
	sort.Ints(nr.shards)
	for v := 0; v < nr.vnodes; v++ {
		nr.points = append(nr.points, ringPoint{hash: nr.pointHash(shard, v), shard: shard})
	}
	nr.sortPoints()
	nr.buildSets()
	return nr
}

// WithoutShard returns a copy of the ring with shard removed.
func (r *Ring) WithoutShard(shard int) *Ring {
	nr := &Ring{seed: r.seed, vnodes: r.vnodes}
	for _, s := range r.shards {
		if s != shard {
			nr.shards = append(nr.shards, s)
		}
	}
	for _, p := range r.points {
		if p.shard != shard {
			nr.points = append(nr.points, p)
		}
	}
	nr.buildSets()
	return nr
}

func (r *Ring) clone() *Ring {
	return &Ring{
		seed:   r.seed,
		vnodes: r.vnodes,
		points: append([]ringPoint(nil), r.points...),
		shards: append([]int(nil), r.shards...),
	}
}

// sortPoints orders by hash with shard id as a deterministic tiebreak.
func (r *Ring) sortPoints() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
}

// buildSets precomputes every point's replica walk: the distinct
// shards met walking clockwise from the point, in meeting order.
func (r *Ring) buildSets() {
	n := len(r.shards)
	r.sets = make([]int, len(r.points)*n)
	for i := range r.points {
		row := r.sets[i*n : i*n : (i+1)*n]
		for j := 0; j < len(r.points) && len(row) < n; j++ {
			p := r.points[(i+j)%len(r.points)]
			dup := false
			for _, s := range row {
				if s == p.shard {
					dup = true
					break
				}
			}
			if !dup {
				row = append(row, p.shard)
			}
		}
	}
}

// Shards returns the member shard ids, ascending.
func (r *Ring) Shards() []int { return append([]int(nil), r.shards...) }

// Size returns the member count.
//
//herd:hotpath
func (r *Ring) Size() int { return len(r.shards) }

// Has reports whether shard is a ring member.
func (r *Ring) Has(shard int) bool {
	for _, s := range r.shards {
		if s == shard {
			return true
		}
	}
	return false
}

// Replicas returns the key's replica set: the first rf distinct shards
// walking clockwise from the key's position. Index 0 is the primary.
// Fewer than rf members yields the full membership. The set is a
// read-only view of the ring's precomputed walk, shared by every
// caller: it must not be modified (its capacity ends at its length, so
// an append copies).
//
//herd:hotpath
func (r *Ring) Replicas(key kv.Key, rf int) []int {
	if len(r.points) == 0 {
		return nil
	}
	n := len(r.shards)
	if rf > n {
		rf = n
	}
	if rf < 1 {
		rf = 1
	}
	// The first point at or past the key's hash, wrapping to point 0.
	h := key.Hash64(r.seed)
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := lo % len(r.points)
	return r.sets[start*n : start*n+rf : start*n+rf]
}

// Primary returns the key's first replica.
func (r *Ring) Primary(key kv.Key) int { return r.Replicas(key, 1)[0] }
