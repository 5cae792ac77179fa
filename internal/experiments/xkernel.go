package experiments

import (
	"cmp"
	"slices"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/core"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/sedonasim"
	"spatialjoin/internal/tuple"
)

// XKernel is the local-join kernel ablation, following the in-memory
// spatial join literature the paper builds on (Nobari et al. EDBT '17,
// Tsitsigkos et al. SIGSPATIAL '19): with partitioning and replication
// fixed (LPiB), only the per-cell join algorithm varies — plane sweep
// along x, per-cell best-axis sweep, an STR R-tree build-and-probe, and
// the quadratic nested loop as the floor. Every kernel reads the same
// slab lanes and writes the same sink, so the columns differ in the
// per-cell algorithm alone.
func XKernel(sc Scale) []*Table {
	t := &Table{
		ID:    "xkernel",
		Title: "local join kernel ablation (LPiB partitioning fixed)",
		Columns: []string{
			"combination", "sweep-x", "best-axis", "rtree-probe", "nested-loop",
		},
	}
	kernels := []struct {
		name string
		k    dpe.Kernel
	}{
		{"sweep-x", nil}, // engine default
		{"best-axis", bestAxisKernel},
		{"rtree-probe", sedonasim.IndexProbeKernel(false)},
		{"nested-loop", nestedLoopKernel},
	}
	for _, combo := range Combos() {
		rs := combo.R(sc.N)
		ss := combo.S(sc.N)
		row := []string{combo.Name}
		var baseline *core.Result
		for _, k := range kernels {
			res := mustCoreRepeated(sc, rs, ss, core.Config{
				Eps: DefaultEps, Kernel: k.k,
				Workers: sc.Workers, Partitions: sc.Partitions, Seed: sc.Seed,
			})
			if baseline == nil {
				baseline = res
			} else if res.Results != baseline.Results || res.Checksum != baseline.Checksum {
				panic("xkernel: kernels disagree on " + combo.Name)
			}
			row = append(row, fmtDur(res.TotalTime()))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}
}

// bestAxisKernel sweeps along whichever axis spreads the cell's points
// more — the per-partition sweep-axis tuning of Tsitsigkos et al.
// (SIGSPATIAL '19): a wider sweep axis puts fewer points in each
// ε-window. The lanes arrive x-sorted, so the x sweep runs in place;
// the y sweep works on swapped, re-sorted copies.
func bestAxisKernel(_ int, r, s *colpipe.Group, eps float64, out *colsweep.Sink) {
	if r.Len() == 0 || s.Len() == 0 {
		return
	}
	spreadX := max(r.Xs[r.Len()-1], s.Xs[s.Len()-1]) - min(r.Xs[0], s.Xs[0])
	spreadY := max(slices.Max(r.Ys), slices.Max(s.Ys)) - min(slices.Min(r.Ys), slices.Min(s.Ys))
	if spreadX >= spreadY {
		colsweep.SweepSorted(&r.Cols, &s.Cols, eps, out)
		return
	}
	b := colsweep.Get()
	defer colsweep.Put(b)
	flip := func(g *colpipe.Group) colsweep.Cols {
		c := colsweep.Cols{Xs: slices.Clone(g.Xs), Ys: slices.Clone(g.Ys), IDs: slices.Clone(g.IDs)}
		c.SwapAxes()
		c.SortByX(b)
		return c
	}
	rc, sc := flip(r), flip(s)
	colsweep.SweepSorted(&rc, &sc, eps, out)
}

// nestedLoopKernel compares every pair of the cell: the quadratic floor.
func nestedLoopKernel(_ int, r, s *colpipe.Group, eps float64, out *colsweep.Sink) {
	eps2 := eps * eps
	for i, rid := range r.IDs {
		for j, sid := range s.IDs {
			dx, dy := r.Xs[i]-s.Xs[j], r.Ys[i]-s.Ys[j]
			if dx*dx+dy*dy <= eps2 {
				out.Add(rid, sid)
			}
		}
	}
}

// mustCoreRepeated runs core.Join sc.reps() times, returning the run with
// the median wall-clock time.
func mustCoreRepeated(sc Scale, rs, ss []tuple.Tuple, cfg core.Config) *core.Result {
	reps := make([]*core.Result, sc.reps())
	for i := range reps {
		reps[i] = mustCore(rs, ss, cfg)
	}
	slices.SortFunc(reps, func(a, b *core.Result) int { return cmp.Compare(a.TotalTime(), b.TotalTime()) })
	return reps[len(reps)/2]
}
