package stream

import (
	"bytes"
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
			if old, ok := model[id]; ok {
				s.remove(id, old.Pt) // slab ids are unique: replace = remove + insert
			}
			tp := tuple.Tuple{ID: id, Pt: geom.Point{X: rng.Float64() * 4, Y: rng.Float64() * 4}}
			s.insert(tp.ID, tp.Pt)
			model[id] = tp
		} else {
			for id, old := range model {
				s.remove(id, old.Pt)
				delete(model, id)
				break
			}
		}
		if s.needsCompaction() {
			s.compact()
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
	checkSortedSlab(t, &s, model)
}

// checkSortedSlab asserts that sorted() leaves the slab clean and its
// base x-sorted, holding exactly the model's points, each id once.
func checkSortedSlab(t *testing.T, s *slab, model map[int64]tuple.Tuple) {
	t.Helper()
	base := s.sorted()
	if !slices.IsSorted(base.Xs) {
		t.Fatal("sorted() lanes not sorted by x")
	}
	if base.Len() != len(model) {
		t.Fatalf("sorted() holds %d points, model %d", base.Len(), len(model))
	}
	seen := map[int64]bool{}
	for i, id := range base.IDs {
		if m, ok := model[id]; !ok || seen[id] || m.Pt != (geom.Point{X: base.Xs[i], Y: base.Ys[i]}) {
			t.Fatalf("sorted() row %d = id %d at (%v, %v), model %+v (live %v, repeated %v)", i, id, base.Xs[i], base.Ys[i], m, ok, seen[id])
		}
		seen[id] = true
		if s.isDead(i) {
			t.Fatalf("sorted() row %d (id %d) is still marked dead", i, id)
		}
	}
	if s.dirty() != 0 {
		t.Fatalf("dirty after sorted(): %d", s.dirty())
	}
}

// TestStreamSlabTombstoneReinsert covers a base row deleted and its id
// re-inserted: the new row goes to the tail next to the dead one, with
// no compaction, and probes see the id only at its new position.
func TestStreamSlabTombstoneReinsert(t *testing.T) {
	var s slab
	for i := int64(0); i < 64; i++ {
		s.insert(i, geom.Point{X: float64(i), Y: 0})
	}
	s.compact()
	old, moved := geom.Point{X: 7, Y: 0}, geom.Point{X: 99, Y: 0}
	s.remove(7, old) // in base → dead row
	if s.ndead != 1 {
		t.Fatalf("expected 1 dead row, got %d", s.ndead)
	}
	s.insert(7, moved)
	if s.base.Len() != 64 || s.tail.Len() != 1 || s.ndead != 1 {
		t.Fatalf("re-insert compacted: base %d, tail %d, dead %d; want 64, 1, 1", s.base.Len(), s.tail.Len(), s.ndead)
	}
	count := func(p geom.Point) (found, others int) {
		s.probe(p, 0.1, nil, func(id int64) {
			if id == 7 {
				found++
			} else {
				others++
			}
		})
		return found, others
	}
	if found, others := count(old); found != 0 || others != 0 {
		t.Fatalf("probe at the old position: id 7 found %d times, %d others", found, others)
	}
	if found, others := count(moved); found != 1 || others != 0 {
		t.Fatalf("probe at the new position: id 7 found %d times, %d others", found, others)
	}
	if s.len() != 64 {
		t.Fatalf("len = %d, want 64", s.len())
	}
	// Moving back onto the dead row's position leaves one live copy.
	s.remove(7, moved)
	s.insert(7, old)
	if found, _ := count(old); found != 1 {
		t.Fatalf("probe after moving back: id 7 found %d times", found)
	}
	if found, _ := count(moved); found != 0 {
		t.Fatalf("probe at the vacated position: id 7 found %d times", found)
	}
	model := map[int64]tuple.Tuple{}
	for i := int64(0); i < 64; i++ {
		model[i] = tuple.Tuple{ID: i, Pt: geom.Point{X: float64(i), Y: 0}}
	}
	checkSortedSlab(t, &s, model)
}

// FuzzStreamSlab drives one slab with inserts, removes, same-id moves and
// snapshots decoded from the input, on a coarse lattice where many rows
// share one x, against a map model: after every operation a probe must
// report exactly the model's points within ε, and the final snapshot
// must be sorted, clean and equal to the model.
func FuzzStreamSlab(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 4, 5, 1, 1, 0, 0, 2, 1, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 3, 1, 1, 0, 3, 2, 2, 1, 3, 0, 0}, 40))
	f.Add(bytes.Repeat([]byte{0, 9, 0, 0, 0, 17, 0, 1, 0, 9, 0, 2, 3, 0, 0, 0}, 30))
	f.Fuzz(func(t *testing.T, ops []byte) {
		const eps = 0.5
		var s slab
		var sel []int32
		model := map[int64]tuple.Tuple{}
		lattice := func(b byte) float64 { return float64(b%8) * eps / 2 }
		for len(ops) >= 4 {
			kind, id := ops[0]%4, int64(ops[1]%48)
			p := geom.Point{X: lattice(ops[2]), Y: lattice(ops[3])}
			ops = ops[4:]
			switch kind {
			case 0, 1: // upsert: a move when the id is live
				if old, ok := model[id]; ok {
					s.remove(id, old.Pt)
				}
				s.insert(id, p)
				model[id] = tuple.Tuple{ID: id, Pt: p}
			case 2:
				if old, ok := model[id]; ok {
					s.remove(id, old.Pt)
					delete(model, id)
				}
			case 3:
				s.sorted()
			}
			if s.needsCompaction() {
				s.compact()
			}
			if s.len() != len(model) {
				t.Fatalf("slab len %d, model %d", s.len(), len(model))
			}
			got := map[int64]bool{}
			sel = s.probe(p, eps, sel, func(id int64) {
				if got[id] {
					t.Fatalf("probe reported id %d twice", id)
				}
				got[id] = true
			})
			for id, m := range model {
				if want := p.SqDist(m.Pt) <= eps*eps; want != got[id] {
					t.Fatalf("probe at %v: id %d got %v want %v", p, id, got[id], want)
				}
			}
			if len(got) > len(model) {
				t.Fatalf("probe reported %d ids, only %d live", len(got), len(model))
			}
		}
		checkSortedSlab(t, &s, model)
	})
}

// BenchmarkSlabMove times one same-cell move — a remove and a re-insert
// of the same id, then the engine's compaction rule — on a compacted
// 2,000-row slab.
func BenchmarkSlabMove(b *testing.B) {
	const n = 2000
	rng := rand.New(rand.NewSource(7))
	pos := make([]geom.Point, n)
	next := make([]geom.Point, 4096)
	for i := range next {
		next[i] = geom.Point{X: rng.Float64() * 4, Y: rng.Float64() * 4}
	}
	var s slab
	for i := range pos {
		pos[i] = next[i%len(next)]
		s.insert(int64(i), pos[i])
	}
	s.compact()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := (i * 7919) % n
		s.remove(int64(id), pos[id])
		pos[id] = next[i%len(next)]
		s.insert(int64(id), pos[id])
		if s.needsCompaction() {
			s.compact()
		}
	}
}
