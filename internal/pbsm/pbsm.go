// Package pbsm implements the baselines the paper compares against:
// Partition-Based Spatial-Merge join (Patel & DeWitt, SIGMOD '96) adapted
// to the data-parallel engine, in the three configurations of the
// evaluation:
//
//   - UNI(R): a 2ε×2ε grid where every R point is replicated to each cell
//     within ε (S points are assigned to their native cell only).
//   - UNI(S): the same with the roles swapped.
//   - EpsGrid ("ε-grid"): an ε×ε grid replicating the smaller input —
//     finer partitions, heavier replication (up to 8 target cells).
//
// All variants are correct and duplicate-free: with only one set
// replicated, every (r, s) pair is found exactly in the native cell of
// the non-replicated point.
package pbsm

import (
	"fmt"
	"time"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/core"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/replicate"
	"spatialjoin/internal/tuple"
)

// Variant selects the PBSM configuration.
type Variant uint8

const (
	// UniR replicates the R input on a 2ε grid.
	UniR Variant = iota
	// UniS replicates the S input on a 2ε grid.
	UniS
	// EpsGrid uses an ε×ε grid and replicates the smaller input.
	EpsGrid
	// Clone replicates BOTH inputs within ε (Patel & DeWitt's clone join)
	// and avoids duplicate results with the reference-point technique of
	// Dittrich & Seeger: a pair is reported only by the cell containing
	// the pair's midpoint. The midpoint is within ε/2 of both endpoints,
	// so both are guaranteed present in its cell — correct and
	// duplicate-free at the price of replicating both sets.
	Clone
)

// String names the variant as in the paper's charts.
func (v Variant) String() string {
	switch v {
	case UniR:
		return "UNI(R)"
	case UniS:
		return "UNI(S)"
	case EpsGrid:
		return "eps-grid"
	case Clone:
		return "clone+refpoint"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// Scheme returns the variant as a scheme of the core orchestrator: the
// grid (side 2ε, or ε for EpsGrid), universal replication of one input —
// both for Clone, with the reference-point kernel — and hash placement.
// Nothing is sampled and no graph is built.
func Scheme(v Variant) core.Scheme {
	return func(in core.Input, spec *dpe.Spec, p *core.Plan) error {
		start := time.Now()
		res := 2.0
		if v == EpsGrid {
			res = 1
		}
		g, err := in.Grid(res)
		if err != nil {
			return err
		}
		// EpsGrid replicates the set with the fewest objects.
		replR := v == UniR || v == Clone || (v == EpsGrid && len(in.R) <= len(in.S))
		replS := !replR || v == Clone
		p.Grid = g
		p.BuildTime += time.Since(start)

		rs, ss := in.R, in.S
		spec.AssignR = func(row int, _ tuple.Set, dst []int) []int {
			return replicate.Universal(g, rs[row].Pt, replR, dst)
		}
		spec.AssignS = func(row int, _ tuple.Set, dst []int) []int {
			return replicate.Universal(g, ss[row].Pt, replS, dst)
		}
		spec.Cells = g.NumCells()
		if v == Clone {
			spec.Kernel = RefPointKernel(g)
			// Remote workers rebuild the kernel from the grid geometry.
			spec.KernelDesc = dpe.KernelDesc{Kind: dpe.KernelRefPoint, Bounds: in.Bounds, GridEps: in.Eps, GridRes: res}
		}
		return nil
	}
}

// Config and Join are the package's former one-shot entry, kept as a
// source-compatible shim for the benchmark's PBSM layer.
type Config struct {
	Eps                 float64
	Variant             Variant
	Workers, Partitions int
	Collect             bool
	Bounds              *geom.Rect
	Engine              dpe.Engine
}

// Join executes the ε-distance join with universal replication.
func Join(rs, ss []tuple.Tuple, c Config) (*core.Result, error) {
	return core.Join(rs, ss, core.Config{Eps: c.Eps, Workers: c.Workers, Partitions: c.Partitions,
		Collect: c.Collect, Bounds: c.Bounds, Engine: c.Engine, Scheme: Scheme(c.Variant)})
}

// RefPointKernel is the clone join's kernel: every R row probes the
// x-sorted S lanes for its ε-candidates, and a pair is added only by the
// cell containing its midpoint. Exported so internal/cluster's workers
// can rebuild it from the plan's wire kernel description.
func RefPointKernel(g *grid.Grid) dpe.Kernel {
	return func(cell int, r, s *colpipe.Group, eps float64, out *colsweep.Sink) {
		var sel []int32
		for i, id := range r.IDs {
			x, y := r.Xs[i], r.Ys[i]
			sel = colsweep.Probe(&s.Cols, x, y, eps, sel)
			for _, j := range sel {
				mx, my := g.Locate(geom.Point{X: (x + s.Xs[j]) / 2, Y: (y + s.Ys[j]) / 2})
				if g.CellID(mx, my) == cell {
					out.Add(id, s.IDs[j])
				}
			}
		}
	}
}
