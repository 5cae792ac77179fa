package experiments

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/tuple"
)

// TestBestAxisKernelMatchesNestedLoop runs the ablation's best-axis
// kernel on x-elongated cells (swept in place), y-elongated ones (swept
// on swapped copies), tiny ones and cells with an empty side: it must
// find the nested loop's pairs and leave the slab lanes it reads as
// they were.
func TestBestAxisKernelMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	mk := func(n int, w, h float64, base int64) []tuple.Tuple {
		out := make([]tuple.Tuple, n)
		for i := range out {
			out[i] = tuple.Tuple{ID: base + int64(i), Pt: geom.Point{X: rng.Float64() * w, Y: rng.Float64() * h}}
		}
		slices.SortStableFunc(out, func(a, b tuple.Tuple) int { return cmp.Compare(a.Pt.X, b.Pt.X) })
		return out
	}
	group := func(ts []tuple.Tuple) *colpipe.Group {
		g := &colpipe.Group{}
		for _, t := range ts {
			g.Append(t.Pt.X, t.Pt.Y, t.ID)
		}
		return g
	}
	bufs := colsweep.Get()
	defer colsweep.Put(bufs)
	for _, c := range []struct {
		name   string
		nr, ns int
		w, h   float64
	}{
		{"x-elongated", 400, 400, 40, 1},
		{"y-elongated", 400, 400, 1, 40},
		{"tiny", 3, 5, 2, 2},
		{"empty-r", 0, 50, 2, 2},
		{"empty-s", 50, 0, 2, 2},
	} {
		rs, ss := mk(c.nr, c.w, c.h, 0), mk(c.ns, c.w, c.h, 1_000_000)
		r, s := group(rs), group(ss)
		before := [2]colsweep.Cols{{Xs: slices.Clone(r.Xs), Ys: slices.Clone(r.Ys), IDs: slices.Clone(r.IDs)},
			{Xs: slices.Clone(s.Xs), Ys: slices.Clone(s.Ys), IDs: slices.Clone(s.IDs)}}
		var want sweep.Counter
		sweep.NestedLoop(rs, ss, 0.5, want.Emit)
		out := bufs.Sink(false, false)
		bestAxisKernel(0, r, s, 0.5, out)
		if out.N != want.N || out.Checksum != want.Checksum {
			t.Fatalf("%s: best-axis %d/%x, nested loop %d/%x", c.name, out.N, out.Checksum, want.N, want.Checksum)
		}
		for i, g := range [2]*colpipe.Group{r, s} {
			if !slices.Equal(g.Xs, before[i].Xs) || !slices.Equal(g.Ys, before[i].Ys) || !slices.Equal(g.IDs, before[i].IDs) {
				t.Fatalf("%s: the kernel reordered side %d's lanes", c.name, i)
			}
		}
		if c.nr > 100 && want.N == 0 {
			t.Fatalf("%s: the workload has no pairs", c.name)
		}
	}
}
