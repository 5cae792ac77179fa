package dpe

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/tuple"
)

// columnarWorkloads are the differential inputs: uniform random points,
// a lattice whose points sit exactly on cell borders (the replication
// tie cases), and a comb of points exactly ε apart so the inclusive
// distance boundary is exercised on both the in-place sweep and the
// Kernel callback.
func columnarWorkloads(eps float64) map[string][2][]tuple.Tuple {
	rng := rand.New(rand.NewSource(41))
	random := [2][]tuple.Tuple{
		randomTuples(rng, 2500, 20, 0),
		randomTuples(rng, 2500, 20, 1_000_000),
	}

	// grid.New(bounds, eps, 2) cells have side 2ε; put points on every
	// multiple of ε so half of them lie exactly on cell borders.
	var latR, latS []tuple.Tuple
	id := int64(0)
	for x := 0.0; x <= 20; x += eps {
		for y := 0.0; y <= 20; y += 2 * eps {
			latR = append(latR, tuple.Tuple{ID: id, Pt: geom.Point{X: x, Y: y}})
			latS = append(latS, tuple.Tuple{ID: 1_000_000 + id, Pt: geom.Point{X: x, Y: y + eps}})
			id++
		}
	}

	// Exact ε-border: R at x=k·3ε, S exactly ε to the right — every
	// pair's distance is exactly eps and must be emitted (inclusive ≤).
	// 13 columns × 13 rows at ε = 0.5 keep the comb inside the 20×20
	// bounds of uniSpec's grid (replication is only defined there).
	var combR, combS []tuple.Tuple
	for i := 0; i < 169; i++ {
		x := float64(i%13) * 3 * eps
		y := float64(i/13) * 3 * eps
		combR = append(combR, tuple.Tuple{ID: int64(i), Pt: geom.Point{X: x, Y: y}})
		combS = append(combS, tuple.Tuple{ID: 1_000_000 + int64(i), Pt: geom.Point{X: x + eps, Y: y}})
	}

	return map[string][2][]tuple.Tuple{
		"random":     random,
		"lattice":    {latR, latS},
		"eps-border": {combR, combS},
	}
}

// columnarSpec is uniSpec with an optional Hilbert cell ranking.
func columnarSpec(rs, ss []tuple.Tuple, eps float64, workers, nparts int, hilbert bool) (Spec, *grid.Grid) {
	spec, g := uniSpec(rs, ss, eps, workers, nparts)
	if hilbert {
		spec.CellRank = colpipe.HilbertRanks(g.NX, g.NY)
	}
	return spec, g
}

// TestColumnarMatchesBruteForce runs every workload through the slab
// pipeline — on the in-place columnar sweep and through the Kernel
// callback (NestedLoopKernel) — and requires outcomes byte-identical to
// a nested loop over the raw inputs: result count, checksum, and the
// full collected pair set.
func TestColumnarMatchesBruteForce(t *testing.T) {
	const eps = 0.5
	for name, w := range columnarWorkloads(eps) {
		var want sweep.Collector
		var wantSum sweep.Counter
		sweep.NestedLoop(w[0], w[1], eps, func(r, s tuple.Tuple) {
			want.Emit(r, s)
			wantSum.Emit(r, s)
		})
		sortPairs(want.Pairs)

		for _, hilbert := range []bool{false, true} {
			for _, kernel := range []Kernel{nil, NestedLoopKernel} {
				spec, _ := columnarSpec(w[0], w[1], eps, 3, 8, hilbert)
				spec.Collect = true
				spec.Kernel = kernel
				got, err := Run(spec)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got.Results != wantSum.N || got.Checksum != wantSum.Checksum {
					t.Fatalf("%s hilbert=%v kernel=%v: %d/%x, brute force %d/%x",
						name, hilbert, kernel != nil, got.Results, got.Checksum, wantSum.N, wantSum.Checksum)
				}
				sortPairs(got.Pairs)
				if !slices.Equal(got.Pairs, want.Pairs) {
					t.Fatalf("%s hilbert=%v kernel=%v: pair sets diverge (%d vs %d pairs)",
						name, hilbert, kernel != nil, len(got.Pairs), len(want.Pairs))
				}
			}
		}
	}
}

// cellMembers maps cell id → sorted tuple IDs, the canonical form the
// slabs and the reference are reduced to for the per-cell comparison.
type cellMembers map[int][]int64

func (m cellMembers) add(cell int, id int64) {
	m[cell] = append(m[cell], id)
}

func (m cellMembers) sorted() cellMembers {
	for _, ids := range m {
		slices.Sort(ids)
	}
	return m
}

// TestColumnarPartitionContents proves the map + counting-sort shuffle
// places every replica exactly where the assignment says: the reference
// is computed here by calling the spec's Assign functions directly and
// routing each cell through the partitioner, and for every reduce
// partition and every cell the slab group must hold the same tuple IDs
// — native and halo replicas alike. The modelled footprint must equal
// one KeyedSize per reference replica.
func TestColumnarPartitionContents(t *testing.T) {
	const eps = 0.5
	for name, w := range columnarWorkloads(eps) {
		for _, hilbert := range []bool{false, true} {
			spec, g := columnarSpec(w[0], w[1], eps, 3, 8, hilbert)
			pr, err := Prepare(spec)
			if err != nil {
				t.Fatalf("%s prepare: %v", name, err)
			}

			// rank → cell, inverting CellRank (identity when unset).
			rankCell := make([]int, g.NumCells())
			for c := 0; c < g.NumCells(); c++ {
				if spec.CellRank != nil {
					rankCell[spec.CellRank[c]] = c
				} else {
					rankCell[c] = c
				}
			}

			nparts := spec.Part.NumPartitions()
			if pr.NumPartitions() != nparts {
				t.Fatalf("%s: %d partitions, want %d", name, pr.NumPartitions(), nparts)
			}
			var wantBytes, wantRepl int64
			var want [2][]cellMembers
			for side, in := range [2][]tuple.Tuple{w[0], w[1]} {
				want[side] = make([]cellMembers, nparts)
				for p := range want[side] {
					want[side][p] = cellMembers{}
				}
				assign, set := spec.AssignR, tuple.R
				if side == 1 {
					assign, set = spec.AssignS, tuple.S
				}
				var cells []int
				for _, tu := range in {
					cells = assign(tu.Pt, set, cells[:0])
					wantRepl += int64(len(cells) - 1)
					for _, c := range cells {
						want[side][spec.Part.PartitionOf(c)].add(c, tu.ID)
						wantBytes += int64(tu.KeyedSize())
					}
				}
			}

			for p := 0; p < nparts; p++ {
				rs, ss := pr.Slabs(p)
				for side, slab := range [2]*colpipe.Slab{rs, ss} {
					if slab.Payloads != nil {
						t.Fatalf("%s part %d side %d: point slab carries a payload lane", name, p, side)
					}
					got := cellMembers{}
					for k := 0; k < slab.NumGroups(); k++ {
						cell := rankCell[slab.Ranks[k]]
						lo, hi := slab.Group(k)
						for i := lo; i < hi; i++ {
							got.add(cell, slab.IDs[i])
						}
					}
					wantCells := want[side][p].sorted()
					got.sorted()
					if len(got) != len(wantCells) {
						t.Fatalf("%s hilbert=%v part %d side %d: %d cells, want %d",
							name, hilbert, p, side, len(got), len(wantCells))
					}
					for cell, ids := range wantCells {
						if !slices.Equal(got[cell], ids) {
							t.Fatalf("%s hilbert=%v part %d side %d cell %d: members %v, want %v",
								name, hilbert, p, side, cell, got[cell], ids)
						}
					}
				}
			}

			// Replicas are index ranges, not copies, but the byte model
			// still counts every keyed record.
			if got := pr.FootprintBytes(); got != wantBytes {
				t.Fatalf("%s hilbert=%v: footprint %d bytes, want %d", name, hilbert, got, wantBytes)
			}
			if got := pr.Replicated(); got != wantRepl {
				t.Fatalf("%s hilbert=%v: %d replicas, want %d", name, hilbert, got, wantRepl)
			}
		}
	}
}

// TestKernelViewsCarryPayloads checks the Kernel contract on the slab:
// the callback sees each matched cell once, with every row's payload
// still attached to its (id, point) and the cell id intact — even when
// the spec asks for a Hilbert ranking, which kernel plans ignore. The
// spec assigns whole tuples, the rule under which payloads ride the
// shuffle.
func TestKernelViewsCarryPayloads(t *testing.T) {
	const eps = 0.5
	rng := rand.New(rand.NewSource(43))
	stamp := func(ts []tuple.Tuple) []tuple.Tuple {
		for i := range ts {
			ts[i].Payload = binary.LittleEndian.AppendUint64(nil, uint64(ts[i].ID))
		}
		return ts
	}
	rs := stamp(randomTuples(rng, 1500, 20, 0))
	ss := stamp(randomTuples(rng, 1500, 20, 1_000_000))
	spec, g := columnarSpec(rs, ss, eps, 3, 8, true)
	spec = TupleAssigned(spec)

	var mu sync.Mutex
	seen := map[int]bool{}
	spec.Kernel = func(cell int, r, s *colpipe.Group, eps float64, out *colsweep.Sink) {
		mu.Lock()
		if seen[cell] {
			t.Errorf("cell %d joined twice", cell)
		}
		seen[cell] = true
		mu.Unlock()
		for _, side := range [2]*colpipe.Group{r, s} {
			if len(side.Payloads) != side.Len() {
				t.Errorf("cell %d: %d payloads for %d rows", cell, len(side.Payloads), side.Len())
				continue
			}
			for i, id := range side.IDs {
				if p := side.Payloads[i]; len(p) != 8 || int64(binary.LittleEndian.Uint64(p)) != id {
					t.Errorf("cell %d: row %d lost its payload (%x)", cell, id, p)
				}
				// The id handed to the kernel must be the grid cell, not
				// its Hilbert rank: every row is native to it or a halo
				// replica from one of its eight neighbours.
				cx, cy := g.CellCoords(cell)
				hx, hy := g.Locate(geom.Point{X: side.Xs[i], Y: side.Ys[i]})
				if hx < cx-1 || hx > cx+1 || hy < cy-1 || hy > cy+1 {
					t.Errorf("cell %d (%d,%d) handed a row native to (%d,%d)", cell, cx, cy, hx, hy)
				}
			}
		}
		colsweep.SweepSorted(&r.Cols, &s.Cols, eps, out)
	}
	got, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var want sweep.Counter
	sweep.NestedLoop(rs, ss, eps, want.Emit)
	if got.Results != want.N || got.Checksum != want.Checksum {
		t.Fatalf("kernel join %d/%x, brute force %d/%x", got.Results, got.Checksum, want.N, want.Checksum)
	}
}
