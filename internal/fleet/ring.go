// Package fleet multiplies sjoind: a consistent-hash ring places
// datasets across N shard daemons, a router exposes the single-process
// HTTP API over the fleet (proxying same-shard joins, and running a
// cross-shard one on the larger input's shard against a mirror of the
// smaller), token buckets keyed by tenant replace global-only
// admission, and ring changes migrate datasets between shards through
// dstore-format handoff with plan-cache warming on the new owner.
package fleet

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
)

// Key builds the placement key of a dataset: tenant-aware, so two
// tenants' datasets with the same name land independently on the ring.
// The separator byte cannot appear in either part (tenants are
// validated by the router, dataset names never contain NUL).
func Key(tenant, dataset string) string {
	return tenant + "\x00" + dataset
}

// hash64 is the ring's point hash: FNV-1a with a splitmix64-style
// finalizer. Raw FNV of the short, similar vnode labels ("s1#0",
// "s1#1", …) clusters badly in the upper bits, skewing ownership by
// several multiples; the avalanche pass spreads the points evenly. The
// whole function is stable across processes and releases so every
// router instance agrees on placement.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Ring is a consistent-hash ring with virtual nodes. Each shard owns
// VNodes points on the ring; a key belongs to the first shard points
// clockwise from its hash. Adding or removing one shard moves only the
// keys adjacent to that shard's points (~1/N of the keyspace), which is
// what makes shard join/leave a bounded handoff rather than a full
// reshuffle.
//
// Ring is immutable after construction: mutation returns a new ring, so
// a router can resolve against the old ring while preparing a change
// and swap atomically once data migration completed.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	shards []string    // sorted, distinct
}

type ringPoint struct {
	hash  uint64
	shard string
}

// NewRing builds an empty ring; vnodes <= 0 selects the default 64.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes}
}

// Len returns the number of member shards.
func (r *Ring) Len() int { return len(r.shards) }

// Has reports membership.
func (r *Ring) Has(shard string) bool {
	_, ok := slices.BinarySearch(r.shards, shard)
	return ok
}

// With returns a new ring that additionally contains shard. Adding an
// existing member returns the receiver unchanged.
func (r *Ring) With(shard string) *Ring {
	if r.Has(shard) {
		return r
	}
	nr := &Ring{
		vnodes: r.vnodes,
		points: make([]ringPoint, 0, len(r.points)+r.vnodes),
		shards: make([]string, 0, len(r.shards)+1),
	}
	nr.shards = append(nr.shards, r.shards...)
	nr.shards = append(nr.shards, shard)
	slices.Sort(nr.shards)
	nr.points = append(nr.points, r.points...)
	for i := 0; i < r.vnodes; i++ {
		nr.points = append(nr.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", shard, i)), shard: shard})
	}
	sortPoints(nr.points)
	return nr
}

// Without returns a new ring with shard removed; removing a non-member
// returns the receiver unchanged.
func (r *Ring) Without(shard string) *Ring {
	if !r.Has(shard) {
		return r
	}
	nr := &Ring{vnodes: r.vnodes}
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
	return nr
}

func sortPoints(ps []ringPoint) {
	slices.SortFunc(ps, func(a, b ringPoint) int {
		if c := cmp.Compare(a.hash, b.hash); c != 0 {
			return c
		}
		// Hash ties (astronomically rare) break deterministically by
		// shard id so every router agrees.
		return cmp.Compare(a.shard, b.shard)
	})
}

// Owners returns up to n distinct shards for key, in ring order: the
// primary first, then the shards that serve as its replicas. Fewer than
// n members yields all of them.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.shards) {
		n = len(r.shards)
	}
	h := hash64(key)
	start, _ := slices.BinarySearchFunc(r.points, h, func(p ringPoint, h uint64) int {
		return cmp.Compare(p.hash, h)
	})
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !slices.Contains(out, p.shard) {
			out = append(out, p.shard)
		}
	}
	return out
}

// Owner returns the primary shard for key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	o := r.Owners(key, 1)
	if len(o) == 0 {
		return ""
	}
	return o[0]
}
