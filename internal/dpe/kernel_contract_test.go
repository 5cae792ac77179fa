package dpe_test

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"testing"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/extjoin"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/sedonasim"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/tuple"
	"spatialjoin/internal/twolayer"
)

// contractEps and contractBounds frame the contract cases: a grid of
// side-2ε cells over [0, 4]², every case joined as cell 0 = [0, 1)².
const contractEps = 0.5

var contractBounds = geom.Rect{MaxX: 4, MaxY: 4}

// contractCases are adversarial one-cell partitions. R rows get even
// ids and S rows odd ones, counted up together, so rid < sid holds for
// some pairs of every case and not for others.
func contractCases() map[string][2][]tuple.Tuple {
	var next int64
	mk := func(pts []geom.Point) []tuple.Tuple {
		out := make([]tuple.Tuple, len(pts))
		for i, p := range pts {
			out[i] = tuple.Tuple{ID: next, Pt: p}
			next++
		}
		return out
	}
	interleave := func(rp, sp []geom.Point) [2][]tuple.Tuple {
		var rs, ss []tuple.Tuple
		for i := 0; i < max(len(rp), len(sp)); i++ {
			if i < len(rp) {
				rs = append(rs, mk(rp[i:i+1])...)
			}
			if i < len(sp) {
				ss = append(ss, mk(sp[i:i+1])...)
			}
		}
		return [2][]tuple.Tuple{rs, ss}
	}
	repeat := func(p geom.Point, n int) []geom.Point {
		out := make([]geom.Point, n)
		for i := range out {
			out[i] = p
		}
		return out
	}
	// A quarter-ε lattice: many pairs exactly ε apart, many midpoints on
	// cell borders.
	var lattice []geom.Point
	for i := 1; i <= 6; i++ {
		for j := 1; j <= 6; j++ {
			lattice = append(lattice, geom.Point{X: 0.25 * float64(i), Y: 0.25 * float64(j)})
		}
	}
	shifted := make([]geom.Point, len(lattice))
	for i, p := range lattice {
		shifted[i] = geom.Point{X: p.X + contractEps, Y: p.Y + 0.25*float64(i%2)}
	}
	// Saturated: every R row is within ε of every S row, and the S side
	// is wider than the sweep's selection vector.
	rng := rand.New(rand.NewSource(9))
	box := func(n int) []geom.Point {
		out := make([]geom.Point, n)
		for i := range out {
			out[i] = geom.Point{X: 0.9 + 0.2*rng.Float64(), Y: 0.9 + 0.2*rng.Float64()}
		}
		return out
	}
	return map[string][2][]tuple.Tuple{
		"coincident": interleave(append(repeat(geom.Point{X: 0.75, Y: 0.75}, 6), repeat(geom.Point{X: 1, Y: 1}, 3)...),
			append(repeat(geom.Point{X: 0.75, Y: 0.75}, 5), repeat(geom.Point{X: 1, Y: 1}, 3)...)),
		"exact-eps": interleave(lattice, shifted),
		"empty-r":   interleave(nil, lattice),
		"empty-s":   interleave(lattice, nil),
		"saturated": interleave(box(40), box(1100)),
	}
}

// contractSlab lays ts out as the slab a shuffle would produce for one
// cell: a single group of rank 0, x-sorted (stable), with each row's
// point encoded as an object in the payload lane. No rows, no group.
func contractSlab(ts []tuple.Tuple) *colpipe.Slab {
	s := &colpipe.Slab{Starts: []int32{0}}
	if len(ts) == 0 {
		return s
	}
	ts = slices.Clone(ts)
	slices.SortStableFunc(ts, func(a, b tuple.Tuple) int { return cmp.Compare(a.Pt.X, b.Pt.X) })
	s.Ranks = []int32{0}
	for _, t := range ts {
		o := extgeom.NewPoint(t.ID, t.Pt)
		s.Xs, s.Ys, s.IDs = append(s.Xs, t.Pt.X), append(s.Ys, t.Pt.Y), append(s.IDs, t.ID)
		s.Payloads = append(s.Payloads, extgeom.AppendObject(nil, &o))
	}
	s.Starts = append(s.Starts, int32(len(ts)))
	return s
}

// TestKernelContract runs every lane kernel through JoinSlabsTraced on the
// adversarial cases, in count, collect and self-filter mode, and checks
// each against sweep.NestedLoop over the same rows — the reference-point
// kernel against the pairs whose midpoint lies in the cell.
func TestKernelContract(t *testing.T) {
	g := grid.New(contractBounds, contractEps, 2)
	inCell0 := func(r, s tuple.Tuple) bool {
		mx, my := g.Locate(geom.Point{X: (r.Pt.X + s.Pt.X) / 2, Y: (r.Pt.Y + s.Pt.Y) / 2})
		return g.CellID(mx, my) == 0
	}
	cases := contractCases()
	objects := map[int64]*extgeom.Object{}
	for _, c := range cases {
		for _, side := range c {
			for _, t := range side {
				o := extgeom.NewPoint(t.ID, t.Pt)
				objects[t.ID] = &o
			}
		}
	}
	twoLayer := &twolayer.Kernel{Grid: twolayer.NewTileGrid(contractBounds.Expand(1), 1, 1), Pred: extgeom.WithinDistance}
	kernels := []struct {
		name string
		k    dpe.Kernel
		keep func(r, s tuple.Tuple) bool // nil: every pair within ε
	}{
		{"sweep", nil, nil},
		{"nested-loop", dpe.NestedLoopKernel, nil},
		{"refpoint", pbsm.RefPointKernel(g), inCell0},
		{"sedona-index-s", sedonasim.IndexProbeKernel(true), nil},
		{"sedona-index-r", sedonasim.IndexProbeKernel(false), nil},
		{"extjoin-refine", extjoin.RefineKernel(objects, objects, contractEps), nil},
		{"two-layer", twoLayer.Join, nil},
	}
	for name, c := range cases {
		rs, ss := contractSlab(c[0]), contractSlab(c[1])
		for _, kn := range kernels {
			for _, selfFilter := range []bool{false, true} {
				var want []tuple.Pair
				sweep.NestedLoop(c[0], c[1], contractEps, func(r, s tuple.Tuple) {
					if (kn.keep == nil || kn.keep(r, s)) && (!selfFilter || r.ID < s.ID) {
						want = append(want, tuple.Pair{RID: r.ID, SID: s.ID})
					}
				})
				var wantSum uint64
				for _, p := range want {
					wantSum += tuple.PairHash(p.RID, p.SID)
				}
				slices.SortFunc(want, comparePairs)
				for _, collect := range []bool{false, true} {
					got, err := dpe.JoinSlabsTraced(context.Background(), rs, ss, contractEps, kn.k, collect, selfFilter, nil)
					if err != nil {
						t.Fatal(err)
					}
					label := name + "/" + kn.name
					if got.Results != int64(len(want)) || got.Checksum != wantSum {
						t.Fatalf("%s self=%v collect=%v: %d/%x, nested loop %d/%x",
							label, selfFilter, collect, got.Results, got.Checksum, len(want), wantSum)
					}
					if cost := int64(len(c[0]) * len(c[1])); got.Cost != cost {
						t.Fatalf("%s: cost %d, want %d", label, got.Cost, cost)
					}
					slices.SortFunc(got.Pairs, comparePairs)
					if collect && !slices.Equal(got.Pairs, want) {
						t.Fatalf("%s self=%v: collected %d pairs, nested loop %d", label, selfFilter, len(got.Pairs), len(want))
					}
					if !collect && got.Pairs != nil {
						t.Fatalf("%s: count mode collected pairs", label)
					}
				}
				if name == "saturated" && kn.keep == nil && !selfFilter && len(want) != len(c[0])*len(c[1]) {
					t.Fatalf("saturated case matches %d of %d pairs", len(want), len(c[0])*len(c[1]))
				}
			}
		}
	}
}

func comparePairs(a, b tuple.Pair) int {
	return cmp.Or(cmp.Compare(a.RID, b.RID), cmp.Compare(a.SID, b.SID))
}
