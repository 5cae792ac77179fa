package stream

import (
	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/tuple"
)

// Slab compaction policy: a slab is rebuilt (tail merged, tombstones
// dropped, re-sorted) once its dirty part — pending inserts plus
// tombstones — exceeds dirtyFraction of the sorted base, but never before
// minDirty mutations, so small cells absorb churn without re-sorting.
const (
	dirtyFraction = 0.25
	minDirty      = 32
)

// slab is one cell's maintained sweep structure for one input set: a
// sorted-by-x columnar base (the lazily rebuilt part, held as parallel
// x/y/id lanes so probes scan contiguous coordinates), a payload column
// aligned with the base, an unsorted tail of recent inserts, and
// tombstones for deletions that still sit in the base. Probes run against
// the base in O(log n + ε-window) via the columnar kernel's incremental
// entry point, plus a linear scan of the small tail.
type slab struct {
	base  colsweep.Cols      // sorted by ascending x
	pay   [][]byte           // payload column, parallel to base
	tail  []tuple.Tuple      // unsorted recent inserts
	tombs map[int64]struct{} // ids deleted but still present in base
}

// insert adds t to the slab. A tombstoned re-insert of the same id first
// resolves the tombstone by compacting, keeping ids unique per slab.
func (s *slab) insert(t tuple.Tuple) {
	if _, dead := s.tombs[t.ID]; dead {
		s.compact()
	}
	s.tail = append(s.tail, t)
}

// remove deletes the tuple with the given id, preferring an in-place
// tail removal and falling back to a tombstone against the base.
func (s *slab) remove(id int64) {
	for i := range s.tail {
		if s.tail[i].ID == id {
			s.tail[i] = s.tail[len(s.tail)-1]
			s.tail = s.tail[:len(s.tail)-1]
			return
		}
	}
	if s.tombs == nil {
		s.tombs = map[int64]struct{}{}
	}
	s.tombs[id] = struct{}{}
}

// at materialises the base point at index i as a tuple.
func (s *slab) at(i int) tuple.Tuple {
	return tuple.Tuple{
		ID:      s.base.IDs[i],
		Pt:      geom.Point{X: s.base.Xs[i], Y: s.base.Ys[i]},
		Payload: s.pay[i],
	}
}

// probe reports every live tuple of the slab within eps of p. sel is
// the probe's selection scratch; the grown scratch is returned for the
// next probe.
func (s *slab) probe(p geom.Point, eps float64, sel []int32, emit func(tuple.Tuple)) []int32 {
	sel = colsweep.Probe(&s.base, p.X, p.Y, eps, sel)
	for _, i := range sel {
		if _, dead := s.tombs[s.base.IDs[i]]; !dead {
			emit(s.at(int(i)))
		}
	}
	eps2 := eps * eps
	for _, t := range s.tail {
		if p.SqDist(t.Pt) <= eps2 {
			emit(t)
		}
	}
	return sel
}

// dirty returns the size of the unsorted/tombstoned part.
func (s *slab) dirty() int { return len(s.tail) + len(s.tombs) }

// len returns the number of live tuples.
func (s *slab) len() int { return s.base.Len() - len(s.tombs) + len(s.tail) }

// needsCompaction reports whether the dirty part crossed the threshold.
func (s *slab) needsCompaction() bool {
	d := s.dirty()
	if d < minDirty {
		return false
	}
	return float64(d) > dirtyFraction*float64(s.base.Len())
}

// compact merges the tail into the base, drops tombstoned entries, and
// re-sorts — the lazy rebuild of the cell's columnar sweep structure.
func (s *slab) compact() {
	merged := make([]tuple.Tuple, 0, s.len())
	for i := 0; i < s.base.Len(); i++ {
		if _, dead := s.tombs[s.base.IDs[i]]; !dead {
			merged = append(merged, s.at(i))
		}
	}
	merged = append(merged, s.tail...)
	sweep.SortByX(merged)
	s.base.Reset()
	s.pay = s.pay[:0]
	for _, t := range merged {
		s.base.Append(t.Pt.X, t.Pt.Y, t.ID)
		s.pay = append(s.pay, t.Payload)
	}
	s.tail = nil
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

// contents returns the live tuples of the slab sorted by x (materialised;
// prefer sorted for the columnar view).
func (s *slab) contents() []tuple.Tuple {
	s.sorted()
	out := make([]tuple.Tuple, 0, s.base.Len())
	for i := 0; i < s.base.Len(); i++ {
		out = append(out, s.at(i))
	}
	return out
}
