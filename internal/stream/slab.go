package stream

import (
	"slices"

	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/geom"
)

// Slab compaction policy: a slab is compacted (dead rows dropped, tail
// merged into the base) once its dirty part — tail rows plus dead base
// rows — exceeds dirtyFraction of the sorted base, but never before
// minDirty mutations, so small cells absorb churn without rewriting.
const (
	dirtyFraction = 0.25
	minDirty      = 32
)

// slab is one cell's maintained sweep structure for one input set, in
// three parts: an x-sorted columnar base, whose parallel x/y/id lanes
// probes scan contiguously; an unsorted columnar tail of recent inserts;
// and a bitset marking the base rows deleted since the last compaction.
// The base is sorted once and only ever merged into: compaction drops
// its dead rows in place, x-sorts the small tail and merges it in. A
// slab holds coordinates and ids only; payloads live once, in the
// engine's entries. Probes run against the base in O(log n + ε-window)
// via the columnar kernel's incremental entry point, plus a linear scan
// of the small tail.
//
// An id is live at most once per slab, but a deleted base row keeps its
// id until compaction, so a re-inserted id can sit dead in the base and
// live in the tail at the same time.
type slab struct {
	base  colsweep.Cols // sorted by ascending x
	tail  colsweep.Cols // unsorted recent inserts
	dead  []uint64      // bit i set: base row i is deleted
	ndead int           // set bits in dead
}

// insert adds point p with the given id at the end of the tail.
func (s *slab) insert(id int64, p geom.Point) {
	s.tail.Append(p.X, p.Y, id)
}

// remove deletes the live point with the given id, which sits at p:
// in place when it is in the tail, otherwise by marking its base row
// dead, found by binary search on p.X.
func (s *slab) remove(id int64, p geom.Point) {
	t := &s.tail
	for i, tid := range t.IDs {
		if tid == id {
			last := t.Len() - 1
			t.Xs[i], t.Ys[i], t.IDs[i] = t.Xs[last], t.Ys[last], t.IDs[last]
			t.Xs, t.Ys, t.IDs = t.Xs[:last], t.Ys[:last], t.IDs[:last]
			return
		}
	}
	b := &s.base
	i, _ := slices.BinarySearch(b.Xs, p.X)
	for ; i < b.Len() && b.Xs[i] == p.X; i++ {
		if b.IDs[i] == id && !s.isDead(i) {
			if len(s.dead) == 0 {
				words := (b.Len() + 63) / 64
				s.dead = slices.Grow(s.dead[:0], words)[:words]
			}
			s.dead[i/64] |= 1 << (i % 64)
			s.ndead++
			return
		}
	}
}

// isDead reports whether base row i is deleted.
func (s *slab) isDead(i int) bool {
	return s.ndead > 0 && s.dead[i/64]&(1<<(i%64)) != 0
}

// probe reports the id of every live point of the slab within eps of p.
// sel is the probe's selection scratch; the grown scratch is returned for
// the next probe.
func (s *slab) probe(p geom.Point, eps float64, sel []int32, emit func(id int64)) []int32 {
	sel = colsweep.Probe(&s.base, p.X, p.Y, eps, sel)
	for _, i := range sel {
		if !s.isDead(int(i)) {
			emit(s.base.IDs[i])
		}
	}
	eps2 := eps * eps
	for i, id := range s.tail.IDs {
		if p.SqDist(geom.Point{X: s.tail.Xs[i], Y: s.tail.Ys[i]}) <= eps2 {
			emit(id)
		}
	}
	return sel
}

// each calls f with the id of every live point of the slab.
func (s *slab) each(f func(id int64)) {
	for i, id := range s.base.IDs {
		if !s.isDead(i) {
			f(id)
		}
	}
	for _, id := range s.tail.IDs {
		f(id)
	}
}

// dirty returns the size of the unsorted/deleted part.
func (s *slab) dirty() int { return s.tail.Len() + s.ndead }

// len returns the number of live points.
func (s *slab) len() int { return s.base.Len() - s.ndead + s.tail.Len() }

// needsCompaction reports whether the dirty part crossed the threshold.
func (s *slab) needsCompaction() bool {
	d := s.dirty()
	if d < minDirty {
		return false
	}
	return float64(d) > dirtyFraction*float64(s.base.Len())
}

// compact folds the dirty part into the base in O(n + t log t) for n
// base and t tail rows: the live base rows are filtered in place (they
// stay sorted), the tail alone is x-sorted, and the two are merged from
// the back into lanes grown to exactly the live count.
func (s *slab) compact() {
	b := &s.base
	if s.ndead > 0 {
		n := 0
		for i, id := range b.IDs {
			if !s.isDead(i) {
				b.Xs[n], b.Ys[n], b.IDs[n] = b.Xs[i], b.Ys[i], id
				n++
			}
		}
		b.Xs, b.Ys, b.IDs = b.Xs[:n], b.Ys[:n], b.IDs[:n]
		clear(s.dead)
		s.dead = s.dead[:0]
		s.ndead = 0
	}
	t := &s.tail
	if t.Len() == 0 {
		return
	}
	bufs := colsweep.Get()
	t.SortByX(bufs)
	colsweep.Put(bufs)
	i, j := b.Len()-1, t.Len()-1
	n := b.Len() + t.Len()
	b.Xs, b.Ys, b.IDs = growExact(b.Xs, n), growExact(b.Ys, n), growExact(b.IDs, n)
	for k := n - 1; j >= 0; k-- {
		if i >= 0 && b.Xs[i] > t.Xs[j] {
			b.Xs[k], b.Ys[k], b.IDs[k] = b.Xs[i], b.Ys[i], b.IDs[i]
			i--
		} else {
			b.Xs[k], b.Ys[k], b.IDs[k] = t.Xs[j], t.Ys[j], t.IDs[j]
			j--
		}
	}
	t.Reset()
}

// growExact returns s extended to length n. When its capacity is short
// it is reallocated to n rounded up to the allocator's size class only,
// so merged lanes do not carry append's growth slack.
func growExact[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	out := slices.Grow([]T(nil), n)[:n]
	copy(out, s)
	return out
}

// sorted returns the live contents of the slab as an x-sorted columnar
// slab, compacting as a side effect so repeated snapshots stay cheap. The
// returned Cols is the slab's own base: read-only, valid until the next
// mutation.
func (s *slab) sorted() *colsweep.Cols {
	if s.dirty() > 0 {
		s.compact()
	}
	return &s.base
}
