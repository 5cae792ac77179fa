// Package sweep implements the local (per-partition) ε-distance join
// algorithms: a plane-sweep join in the tradition of PBSM's partition-level
// join, and a quadratic nested-loop join used as a correctness oracle in
// tests and for tiny partitions.
//
// Both algorithms report every pair (r, s) with d(r, s) <= eps exactly once
// through an Emit callback, so callers choose between counting, collecting,
// or streaming results without the join materialising anything itself.
package sweep

import (
	"slices"

	"spatialjoin/internal/tuple"
)

// Emit receives one verified join result pair.
type Emit func(r, s tuple.Tuple)

// NestedLoop computes the ε-distance join of rs and ss by comparing all
// pairs. It is O(|R|·|S|) and intended as an oracle and for very small
// inputs, where its lack of sorting makes it the fastest choice.
func NestedLoop(rs, ss []tuple.Tuple, eps float64, emit Emit) {
	eps2 := eps * eps
	for _, r := range rs {
		for _, s := range ss {
			if r.Pt.SqDist(s.Pt) <= eps2 {
				emit(r, s)
			}
		}
	}
}

// nestedLoopThreshold is the partition size below which PlaneSweep falls
// back to NestedLoop: sorting dominates for tiny inputs.
const nestedLoopThreshold = 8

// PlaneSweep computes the ε-distance join of rs and ss with a plane sweep
// along the x axis. Both inputs are sorted by x (copies are made; the
// caller's slices are not reordered), then for every r the S points with
// |s.x - r.x| <= eps are examined. Expected cost is
// O(n log n + candidates), where candidates is the number of pairs within
// eps on the x axis alone.
func PlaneSweep(rs, ss []tuple.Tuple, eps float64, emit Emit) {
	if len(rs) == 0 || len(ss) == 0 {
		return
	}
	if len(rs)*len(ss) <= nestedLoopThreshold*nestedLoopThreshold {
		NestedLoop(rs, ss, eps, emit)
		return
	}
	r := sortedByX(rs)
	s := sortedByX(ss)
	sweepSorted(r, s, eps, emit)
}

// SortByX sorts ts in place by ascending x coordinate.
func SortByX(ts []tuple.Tuple) {
	slices.SortFunc(ts, func(a, b tuple.Tuple) int {
		if a.Pt.X < b.Pt.X {
			return -1
		}
		if a.Pt.X > b.Pt.X {
			return 1
		}
		return 0
	})
}

// PlaneSweepBestAxis sweeps along whichever axis spreads the partition's
// points more — the per-partition sweep-axis tuning of Tsitsigkos et al.
// (SIGSPATIAL '19). A wider sweep axis means fewer points per ε-window
// and therefore fewer candidate pairs to refine. Tiny inputs skip the
// spread scan entirely and go straight to the nested loop, which is where
// both sweeps would end up anyway.
func PlaneSweepBestAxis(rs, ss []tuple.Tuple, eps float64, emit Emit) {
	if len(rs) == 0 || len(ss) == 0 {
		return
	}
	if len(rs)*len(ss) <= nestedLoopThreshold*nestedLoopThreshold {
		NestedLoop(rs, ss, eps, emit)
		return
	}
	sx, sy := spreadXY(rs, ss)
	if sx >= sy {
		PlaneSweep(rs, ss, eps, emit)
		return
	}
	// Sweep along y: swap the coordinates of sorted copies, and swap
	// them back inside the emit so callers observe original points.
	flip := func(ts []tuple.Tuple) []tuple.Tuple {
		out := make([]tuple.Tuple, len(ts))
		for i, t := range ts {
			t.Pt.X, t.Pt.Y = t.Pt.Y, t.Pt.X
			out[i] = t
		}
		SortByX(out)
		return out
	}
	sweepSorted(flip(rs), flip(ss), eps, func(rt, st tuple.Tuple) {
		rt.Pt.X, rt.Pt.Y = rt.Pt.Y, rt.Pt.X
		st.Pt.X, st.Pt.Y = st.Pt.Y, st.Pt.X
		emit(rt, st)
	})
}

// spreadXY returns the x and y extents of the union of rs and ss,
// computed with one min/max pass over each input instead of one pass per
// axis per input.
func spreadXY(rs, ss []tuple.Tuple) (sx, sy float64) {
	var first tuple.Tuple
	if len(rs) > 0 {
		first = rs[0]
	} else if len(ss) > 0 {
		first = ss[0]
	} else {
		return 0, 0
	}
	minX, maxX := first.Pt.X, first.Pt.X
	minY, maxY := first.Pt.Y, first.Pt.Y
	scan := func(ts []tuple.Tuple) {
		for i := range ts {
			x, y := ts[i].Pt.X, ts[i].Pt.Y
			if x < minX {
				minX = x
			} else if x > maxX {
				maxX = x
			}
			if y < minY {
				minY = y
			} else if y > maxY {
				maxY = y
			}
		}
	}
	scan(rs)
	scan(ss)
	return maxX - minX, maxY - minY
}

func sortedByX(ts []tuple.Tuple) []tuple.Tuple {
	out := make([]tuple.Tuple, len(ts))
	copy(out, ts)
	SortByX(out)
	return out
}

// sweepSorted is the sweep kernel: r and s must be sorted by x.
func sweepSorted(r, s []tuple.Tuple, eps float64, emit Emit) {
	eps2 := eps * eps
	start := 0 // first s index whose x may still be within eps of the current r
	for i := range r {
		rx := r[i].Pt.X
		for start < len(s) && s[start].Pt.X < rx-eps {
			start++
		}
		if start == len(s) {
			return
		}
		for j := start; j < len(s) && s[j].Pt.X <= rx+eps; j++ {
			dy := r[i].Pt.Y - s[j].Pt.Y
			if dy > eps || dy < -eps {
				continue
			}
			if r[i].Pt.SqDist(s[j].Pt) <= eps2 {
				emit(r[i], s[j])
			}
		}
	}
}

// Counter is an Emit sink that counts results and maintains an
// order-independent checksum of the result pair identifiers, so two join
// algorithms can be compared cheaply without materialising results.
type Counter struct {
	N        int64
	Checksum uint64
}

// Emit records one result pair.
func (c *Counter) Emit(r, s tuple.Tuple) {
	c.N++
	c.Checksum += tuple.PairHash(r.ID, s.ID)
}

// Collector is an Emit sink that materialises result pairs.
type Collector struct {
	Pairs []tuple.Pair
}

// Emit appends one result pair.
func (c *Collector) Emit(r, s tuple.Tuple) {
	c.Pairs = append(c.Pairs, tuple.Pair{RID: r.ID, SID: s.ID})
}
