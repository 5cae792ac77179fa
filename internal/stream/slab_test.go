package stream

import (
	"math/rand"
	"slices"
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/tuple"
)

// TestStreamSlabMaintenance hammers one slab with random inserts and
// removes against a map model, checking probes and lazy compaction.
func TestStreamSlabMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var s slab
	var sel []int32
	model := map[int64]tuple.Tuple{}
	const eps = 0.5
	for op := 0; op < 4000; op++ {
		if rng.Intn(3) > 0 || len(model) == 0 {
			id := int64(rng.Intn(300))
			if _, ok := model[id]; ok {
				s.remove(id) // slab ids are unique: replace = remove + insert
			}
			tp := tuple.Tuple{ID: id, Pt: geom.Point{X: rng.Float64() * 4, Y: rng.Float64() * 4}}
			s.insert(tp.ID, tp.Pt)
			model[id] = tp
		} else {
			for id := range model {
				s.remove(id)
				delete(model, id)
				break
			}
		}
		if op%97 == 0 {
			p := geom.Point{X: rng.Float64() * 4, Y: rng.Float64() * 4}
			got := map[int64]bool{}
			sel = s.probe(p, eps, sel, func(id int64) {
				if got[id] {
					t.Fatalf("probe reported id %d twice", id)
				}
				got[id] = true
			})
			for id, m := range model {
				if want := p.SqDist(m.Pt) <= eps*eps; want != got[id] {
					t.Fatalf("op %d: probe mismatch for id %d: got %v want %v", op, id, got[id], want)
				}
			}
			if len(got) > len(model) {
				t.Fatalf("probe reported %d tuples, only %d live", len(got), len(model))
			}
		}
	}
	if s.len() != len(model) {
		t.Fatalf("slab len %d, model %d", s.len(), len(model))
	}
	live := map[int64]bool{}
	s.each(func(id int64) { live[id] = true })
	if len(live) != len(model) {
		t.Fatalf("each reported %d ids, model %d", len(live), len(model))
	}
	base := s.sorted()
	if !slices.IsSorted(base.Xs) {
		t.Fatal("sorted() lanes not sorted by x")
	}
	if base.Len() != len(model) {
		t.Fatalf("sorted() holds %d points, model %d", base.Len(), len(model))
	}
	for i, id := range base.IDs {
		if m, ok := model[id]; !ok || m.Pt != (geom.Point{X: base.Xs[i], Y: base.Ys[i]}) {
			t.Fatalf("sorted() row %d = id %d at (%v, %v), model %+v (live %v)", i, id, base.Xs[i], base.Ys[i], m, ok)
		}
	}
	if s.dirty() != 0 {
		t.Fatalf("dirty after sorted(): %d", s.dirty())
	}
}

// TestStreamSlabTombstoneReinsert covers the tombstone-then-reinsert path
// that forces an early compaction to keep ids unique.
func TestStreamSlabTombstoneReinsert(t *testing.T) {
	var s slab
	for i := int64(0); i < 64; i++ {
		s.insert(i, geom.Point{X: float64(i), Y: 0})
	}
	s.compact()
	s.remove(7) // in base → tombstone
	if len(s.tombs) != 1 {
		t.Fatalf("expected 1 tombstone, got %d", len(s.tombs))
	}
	s.insert(7, geom.Point{X: 99, Y: 0})
	found := 0
	s.probe(geom.Point{X: 99, Y: 0}, 0.1, nil, func(id int64) {
		if id == 7 {
			found++
		}
	})
	if found != 1 {
		t.Fatalf("reinserted id 7 found %d times", found)
	}
	if s.len() != 64 {
		t.Fatalf("len = %d, want 64", s.len())
	}
}
