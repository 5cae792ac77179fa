package stream

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/replicate"
	"spatialjoin/internal/tuple"
)

// checkModel asserts that an engine's state is exactly what its live
// points and pair types determine:
//   - the graph equals BuildFromTypeFunc over its own pair types, so its
//     marks and locks depend on the types alone;
//   - each live entry's cells equal replicate.Adaptive under that graph;
//   - each cell's slab holds exactly the ids assigned to it;
//   - Counters().Replicas equals Σ(len(cells) − 1).
func checkModel(t testing.TB, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	g := e.g
	fresh := agreements.BuildFromTypeFunc(g, func(ci, cj int) tuple.Set {
		if ci == grid.NoCell || cj == grid.NoCell {
			return tuple.R
		}
		cx, cy := g.CellCoords(ci)
		for d := grid.Dir(0); d < grid.NumDirs; d++ {
			if g.Neighbor(cx, cy, d) == cj {
				return e.graph.PairType(cx, cy, d)
			}
		}
		panic(fmt.Sprintf("cells %d and %d are not adjacent", ci, cj))
	})
	for gy := 0; gy <= g.NY; gy++ {
		for gx := 0; gx <= g.NX; gx++ {
			got, want := e.graph.Quartet(gx, gy), fresh.Quartet(gx, gy)
			for i := grid.Pos(0); i < grid.NumPos; i++ {
				for j := grid.Pos(0); j < grid.NumPos; j++ {
					if i != j && (got.Type(i, j) != want.Type(i, j) || got.Marked(i, j) != want.Marked(i, j) || got.Locked(i, j) != want.Locked(i, j)) {
						t.Fatalf("quartet (%d,%d) edge %d->%d differs from BuildFromTypeFunc over the same types", gx, gy, i, j)
					}
				}
			}
			for i := grid.Pos(0); i < grid.NumPos; i++ {
				for set := tuple.R; set <= tuple.S; set++ {
					if e.graph.Slot(gx, gy, i, set) != fresh.Slot(gx, gy, i, set) {
						t.Fatalf("quartet (%d,%d) compiled slot (%v, %v) differs from BuildFromTypeFunc over the same types", gx, gy, i, set)
					}
				}
			}
		}
	}

	var replicas int64
	assigned := make([][2][]int64, len(e.cells))
	for set := tuple.R; set <= tuple.S; set++ {
		for id, en := range e.live[set] {
			want := replicate.Adaptive(e.graph, en.t.Pt, set, nil)
			got := make([]int, len(en.cells))
			for i, c := range en.cells {
				got[i] = int(c)
				assigned[c][set] = append(assigned[c][set], id)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%v point %d at %v is held in cells %v, the graph assigns %v", set, id, en.t.Pt, got, want)
			}
			replicas += int64(len(en.cells) - 1)
		}
	}
	for c := range e.cells {
		for set := tuple.R; set <= tuple.S; set++ {
			var held []int64
			e.cells[c][set].each(func(id int64) { held = append(held, id) })
			slices.Sort(held)
			want := assigned[c][set]
			slices.Sort(want)
			if !slices.Equal(held, want) {
				t.Fatalf("cell %d %v slab holds %v, assigned %v", c, set, held, want)
			}
		}
	}
	if e.c.Replicas != replicas {
		t.Fatalf("Counters().Replicas = %d, entries hold %d replicas", e.c.Replicas, replicas)
	}
}

// modelPoint returns a point of the 8×8 world on the 1/16 lattice: on a
// cell border, ε from one (at GridRes 2 that is a cell's centre line),
// exactly ε from partner (a live point of the other set, when ok), or
// anywhere.
func modelPoint(rng *rand.Rand, g *grid.Grid, partner geom.Point, ok bool) geom.Point {
	clamp := func(v float64) float64 { return min(max(v, 0), 8) }
	lattice := func() float64 { return float64(rng.Intn(8*16+1)) / 16 }
	border := func() float64 { return clamp(float64(rng.Intn(g.NX+1)) * g.Tile) }
	sign := func() float64 { return float64(2*rng.Intn(2) - 1) }
	switch rng.Intn(5) {
	case 0:
		return geom.Point{X: border(), Y: lattice()}
	case 1:
		return geom.Point{X: lattice(), Y: border()}
	case 2:
		return geom.Point{X: clamp(border() + sign()*g.Eps), Y: clamp(border() + sign()*g.Eps)}
	case 3:
		if ok {
			if rng.Intn(2) == 0 {
				return geom.Point{X: clamp(partner.X + sign()*g.Eps), Y: partner.Y}
			}
			return geom.Point{X: partner.X, Y: clamp(partner.Y + sign()*g.Eps)}
		}
	}
	return geom.Point{X: lattice(), Y: lattice()}
}

// TestStreamModel drives engines at GridRes 2 and 2.5 with upserts,
// moves, refreshes and deletes on lattice, exact-border and exact-ε
// points, a small RebalanceEvery, explicit rebalances and TTL expiry,
// and checks the model invariants after every operation. The share of S
// among the mutations cycles from 1/8 to all every 8 rounds, so the
// rebalancer flips pairs to S and back.
func TestStreamModel(t *testing.T) {
	var flips int64
	for _, res := range []float64{2, 2.5} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("res%v/seed%d", res, seed), func(t *testing.T) {
				flips += streamModel(t, res, seed)
			})
		}
	}
	if flips == 0 {
		t.Fatal("no agreement flipped: the model test never exercised a rebuilt quartet")
	}
}

func streamModel(t *testing.T, res float64, seed int64) int64 {
	clock := time.Unix(1000, 0)
	e, err := New(Config{
		Eps:            0.5,
		Bounds:         geom.NewRect(0, 0, 8, 8),
		GridRes:        res,
		Policy:         agreements.LPiB,
		TTL:            40 * time.Second,
		RebalanceEvery: 7,
		Now:            func() time.Time { return clock },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	var ids [2][]int64
	nextID := int64(1)
	pick := func(set tuple.Set) int64 {
		if len(ids[set]) == 0 {
			return 0
		}
		return ids[set][rng.Intn(len(ids[set]))]
	}
	point := func(set tuple.Set) geom.Point {
		en, ok := e.live[set.Other()][pick(set.Other())]
		if !ok {
			return modelPoint(rng, e.g, geom.Point{}, false)
		}
		return modelPoint(rng, e.g, en.t.Pt, true)
	}
	for round := 0; round < 80; round++ {
		clock = clock.Add(time.Second)
		switch rng.Intn(10) {
		case 0:
			e.Rebalance()
		case 1:
			e.ExpireBefore(clock.Add(-time.Duration(10+rng.Intn(30)) * time.Second))
		default:
			batch := make([]Mutation, 1+rng.Intn(12))
			for i := range batch {
				set := tuple.R
				if rng.Float64()*8 < 1+float64(round%8) {
					set = tuple.S
				}
				m := Mutation{Set: set}
				switch roll := rng.Intn(10); {
				case roll < 5:
					m.Tuple = tuple.Tuple{ID: nextID, Pt: point(set)}
					ids[set] = append(ids[set], nextID)
					nextID++
				case roll < 7: // move, or re-insert a deleted or expired id
					m.Tuple = tuple.Tuple{ID: pick(set), Pt: point(set)}
				case roll < 8: // refresh in place, or upsert of an unknown id
					m.Tuple.ID = pick(set)
					if en, ok := e.live[set][m.Tuple.ID]; ok {
						m.Tuple.Pt = en.t.Pt
					}
				default:
					m.Delete, m.Tuple.ID = true, pick(set)
				}
				batch[i] = m
			}
			e.Apply(batch)
		}
		checkModel(t, e)
	}
	return e.Counters().AgreementFlips
}

// FuzzStreamRoundTrip drives an engine on a 4×4-cell grid with mutation
// batches decoded from the input, checkpoints it after a prefix of the
// batches, restores the checkpoint and feeds both engines the rest. After
// each batch the two must report equal results, pairs and counters, and
// both must satisfy the model invariants. The checkpoint is taken right
// after a drift scan: SJSE stores live points and pair types, not the
// scan window (mutations and dirty cells since the last scan).
//
// Input layout: byte 0 picks GridRes 2 or 2.5 (bit 0) and the prefix
// length (the rest); then per batch one length byte (1–8 mutations) and
// three bytes per mutation — set, op and id; x; y — with coordinates on
// the 1/16 lattice of the [0, 4] world.
func FuzzStreamRoundTrip(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := make([]byte, 1+rng.Intn(400))
		rng.Read(in)
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		res := []float64{2, 2.5}[in[0]&1]
		prefix := int(in[0] >> 1)
		var batches [][]Mutation
		for rest := in[1:]; len(rest) > 0; {
			n := 1 + int(rest[0]%8)
			rest = rest[1:]
			var batch []Mutation
			for ; n > 0 && len(rest) >= 3; n-- {
				b := rest[:3]
				rest = rest[3:]
				batch = append(batch, Mutation{
					Set:    tuple.Set(b[0] & 1),
					Delete: b[0]&6 == 6,
					Tuple: tuple.Tuple{
						ID: int64(b[0] >> 3),
						Pt: geom.Point{X: float64(b[1]%65) / 16, Y: float64(b[2]%65) / 16},
					},
				})
			}
			if len(batch) > 0 {
				batches = append(batches, batch)
			}
		}
		prefix = min(prefix, len(batches))

		cfg := Config{Eps: 0.5, Bounds: geom.NewRect(0, 0, 4, 4), GridRes: res, RebalanceEvery: 3}
		orig, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches[:prefix] {
			orig.Apply(b)
			checkModel(t, orig)
		}
		orig.Rebalance()
		var blob bytes.Buffer
		if err := orig.WriteCheckpoint(&blob); err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(cfg, blob.Bytes())
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		for i := prefix - 1; i < len(batches); i++ {
			if i >= prefix {
				if ob, rb := orig.Apply(batches[i]), restored.Apply(batches[i]); ob != rb {
					t.Fatalf("batch %d: original did %+v, restored %+v", i, ob, rb)
				}
			}
			op, rp := orig.CurrentPairs(), restored.CurrentPairs()
			byIDs := func(a, b tuple.Pair) int { return cmp.Or(cmp.Compare(a.RID, b.RID), cmp.Compare(a.SID, b.SID)) }
			slices.SortFunc(op, byIDs)
			slices.SortFunc(rp, byIDs)
			if !slices.Equal(op, rp) {
				t.Fatalf("after batch %d: original has %d pairs, restored %d, or they differ", i, len(op), len(rp))
			}
			if oc, rc := orig.Counters(), restored.Counters(); oc != rc {
				t.Fatalf("after batch %d: original counters %+v, restored %+v", i, oc, rc)
			}
			checkModel(t, orig)
			checkModel(t, restored)
		}
	})
}
