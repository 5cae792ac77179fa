package experiments

import (
	"cmp"
	"slices"

	"spatialjoin/internal/core"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/rtree"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/tuple"
)

// XKernel is the local-join kernel ablation, following the in-memory
// spatial join literature the paper builds on (Nobari et al. EDBT '17,
// Tsitsigkos et al. SIGSPATIAL '19): with partitioning and replication
// fixed (LPiB), only the per-cell join algorithm varies — plane sweep
// along x, per-cell best-axis sweep, an STR R-tree build-and-probe, and
// the quadratic nested loop as the floor.
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
		{"best-axis", func(_ int, rs, ss []tuple.Tuple, eps float64, emit sweep.Emit) {
			sweep.PlaneSweepBestAxis(rs, ss, eps, emit)
		}},
		{"rtree-probe", func(_ int, rs, ss []tuple.Tuple, eps float64, emit sweep.Emit) {
			tree := rtree.Build(rs, 0)
			for _, s := range ss {
				tree.Within(s.Pt, eps, func(r tuple.Tuple) { emit(r, s) })
			}
		}},
		{"nested-loop", func(_ int, rs, ss []tuple.Tuple, eps float64, emit sweep.Emit) {
			sweep.NestedLoop(rs, ss, eps, emit)
		}},
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
