package stream

import (
	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/geom"
)

// Slab compaction policy: a slab is rebuilt (tail merged, tombstones
// dropped, re-sorted) once its dirty part — pending inserts plus
// tombstones — exceeds dirtyFraction of the sorted base, but never before
// minDirty mutations, so small cells absorb churn without re-sorting.
const (
	dirtyFraction = 0.25
	minDirty      = 32
)

// slab is one cell's maintained sweep structure for one input set, in
// three parts: an x-sorted columnar base (the lazily rebuilt part, whose
// parallel x/y/id lanes probes scan contiguously), an unsorted columnar
// tail of recent inserts, and tombstones for deletions that still sit in
// the base. A slab holds coordinates and ids only; payloads live once, in
// the engine's entries. Probes run against the base in O(log n +
// ε-window) via the columnar kernel's incremental entry point, plus a
// linear scan of the small tail.
type slab struct {
	base  colsweep.Cols      // sorted by ascending x
	tail  colsweep.Cols      // unsorted recent inserts
	tombs map[int64]struct{} // ids deleted but still present in base
}

// insert adds point p with the given id. A tombstoned re-insert of the
// same id first resolves the tombstone by compacting, keeping ids unique
// per slab.
func (s *slab) insert(id int64, p geom.Point) {
	if _, dead := s.tombs[id]; dead {
		s.compact()
	}
	s.tail.Append(p.X, p.Y, id)
}

// remove deletes the point with the given id, preferring an in-place
// tail removal and falling back to a tombstone against the base.
func (s *slab) remove(id int64) {
	t := &s.tail
	for i, tid := range t.IDs {
		if tid == id {
			last := t.Len() - 1
			t.Xs[i], t.Ys[i], t.IDs[i] = t.Xs[last], t.Ys[last], t.IDs[last]
			t.Xs, t.Ys, t.IDs = t.Xs[:last], t.Ys[:last], t.IDs[:last]
			return
		}
	}
	if s.tombs == nil {
		s.tombs = map[int64]struct{}{}
	}
	s.tombs[id] = struct{}{}
}

// probe reports the id of every live point of the slab within eps of p.
// sel is the probe's selection scratch; the grown scratch is returned for
// the next probe.
func (s *slab) probe(p geom.Point, eps float64, sel []int32, emit func(id int64)) []int32 {
	sel = colsweep.Probe(&s.base, p.X, p.Y, eps, sel)
	for _, i := range sel {
		if id := s.base.IDs[i]; !s.dead(id) {
			emit(id)
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
	for _, id := range s.base.IDs {
		if !s.dead(id) {
			f(id)
		}
	}
	for _, id := range s.tail.IDs {
		f(id)
	}
}

// dead reports whether id is tombstoned in the base.
func (s *slab) dead(id int64) bool {
	_, dead := s.tombs[id]
	return dead
}

// dirty returns the size of the unsorted/tombstoned part.
func (s *slab) dirty() int { return s.tail.Len() + len(s.tombs) }

// len returns the number of live points.
func (s *slab) len() int { return s.base.Len() - len(s.tombs) + s.tail.Len() }

// needsCompaction reports whether the dirty part crossed the threshold.
func (s *slab) needsCompaction() bool {
	d := s.dirty()
	if d < minDirty {
		return false
	}
	return float64(d) > dirtyFraction*float64(s.base.Len())
}

// compact drops tombstoned points from the base lanes, appends the tail
// lanes and re-sorts — the lazy rebuild of the cell's columnar sweep
// structure.
func (s *slab) compact() {
	b := &s.base
	n := 0
	for i, id := range b.IDs {
		if !s.dead(id) {
			b.Xs[n], b.Ys[n], b.IDs[n] = b.Xs[i], b.Ys[i], id
			n++
		}
	}
	b.Xs, b.Ys, b.IDs = b.Xs[:n], b.Ys[:n], b.IDs[:n]
	b.Xs = append(b.Xs, s.tail.Xs...)
	b.Ys = append(b.Ys, s.tail.Ys...)
	b.IDs = append(b.IDs, s.tail.IDs...)
	bufs := colsweep.Get()
	b.SortByX(bufs)
	colsweep.Put(bufs)
	s.tail.Reset()
	s.tombs = nil
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
