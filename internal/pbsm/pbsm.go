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
	"context"
	"fmt"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/replicate"
	"spatialjoin/internal/sweep"
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

// Config parameterises one PBSM execution.
type Config struct {
	Eps        float64    // join distance threshold (required, > 0)
	Variant    Variant    // UniR (default), UniS, or EpsGrid
	Workers    int        // simulated nodes; default GOMAXPROCS
	Partitions int        // reduce partitions; default 8 × workers
	Collect    bool       // materialise result pairs
	Bounds     *geom.Rect // data-space MBR; computed from the inputs when nil
	// NetBandwidth is the simulated per-link bandwidth in bytes/s (0: off).
	NetBandwidth float64
	// SelfFilter enables self-join mode: keep only pairs with r.ID < s.ID.
	SelfFilter bool
	// PoolSize caps the OS-level goroutine pool; default GOMAXPROCS.
	PoolSize int
	// Engine selects the execution backend (nil: in-process local engine).
	Engine dpe.Engine
	// Tracer records phase and task spans under TraceParent; nil
	// disables tracing at zero cost.
	Tracer      *obs.Tracer
	TraceParent obs.SpanID
}

// Result is the outcome of a PBSM join.
type Result struct {
	dpe.Metrics
	Pairs []tuple.Pair
	Grid  *grid.Grid
}

// Plan is a reusable PBSM execution plan: the grid plus the replicated,
// partition-bucketed tuples. Execute may be called repeatedly and
// concurrently.
type Plan struct {
	Grid *grid.Grid

	prep      *dpe.Prepared
	buildTime time.Duration
}

// BuildPlan constructs the grid, maps and shuffles both inputs, and
// returns the reusable plan without joining the partitions.
func BuildPlan(rs, ss []tuple.Tuple, cfg Config) (*Plan, error) {
	if cfg.Eps <= 0 {
		return nil, fmt.Errorf("pbsm: Eps must be positive, got %v", cfg.Eps)
	}
	workers, partitions := core.Parallelism(cfg.Workers, cfg.Partitions)
	bounds := core.DataBounds(cfg.Bounds, rs, ss)

	start := time.Now()
	res := cfg.Res()
	g := grid.New(bounds, cfg.Eps, res)
	replicateR := cfg.replicatesR(len(rs), len(ss))
	buildTime := time.Since(start)

	spec := dpe.Spec{
		R: rs, S: ss, Eps: cfg.Eps,
		AssignR: func(p geom.Point, set tuple.Set, dst []int) []int {
			return replicate.Universal(g, p, replicateR, dst)
		},
		AssignS: func(p geom.Point, set tuple.Set, dst []int) []int {
			return replicate.Universal(g, p, !replicateR, dst)
		},
		Cells:   g.NumCells(),
		Part:    dpe.HashPartitioner{N: partitions},
		Workers: workers,
		Collect: cfg.Collect,

		NetBandwidth: cfg.NetBandwidth,
		SelfFilter:   cfg.SelfFilter,
		PoolSize:     cfg.PoolSize,
		Engine:       cfg.Engine,

		Tracer:      cfg.Tracer,
		TraceParent: cfg.TraceParent,
	}
	if cfg.Variant == Clone {
		both := func(p geom.Point, set tuple.Set, dst []int) []int {
			return replicate.Universal(g, p, true, dst)
		}
		spec.AssignR, spec.AssignS = both, both
		spec.Kernel = refPointKernel(g)
		// Remote workers rebuild the kernel from the grid geometry.
		spec.KernelDesc = dpe.KernelDesc{Kind: dpe.KernelRefPoint, Bounds: bounds, GridEps: cfg.Eps, GridRes: res}
	}
	prep, err := dpe.Prepare(spec)
	if err != nil {
		return nil, err
	}
	return &Plan{Grid: g, prep: prep, buildTime: buildTime}, nil
}

// Eps returns the distance threshold the plan was built for.
func (p *Plan) Eps() float64 { return p.prep.Eps() }

// FootprintBytes returns the wire size of the partitioned tuples.
func (p *Plan) FootprintBytes() int64 { return p.prep.FootprintBytes() }

// Replicated returns the replicated objects the plan serves per Execute.
func (p *Plan) Replicated() int64 { return p.prep.Replicated() }

// Execute runs the partition-level joins of the plan; e.Eps in
// (0, plan ε] re-sweeps with a smaller threshold (0 means the plan's ε).
func (p *Plan) Execute(e core.Exec) (*Result, error) {
	ctx := e.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	out, err := p.prep.ExecuteContext(ctx, dpe.ExecOptions{
		Eps: e.Eps, Collect: e.Collect,
		Tracer: e.Tracer, TraceParent: e.TraceParent,
	})
	if err != nil {
		return nil, err
	}
	out.BuildTime = p.buildTime
	return &Result{Metrics: out.Metrics, Pairs: out.Pairs, Grid: p.Grid}, nil
}

// Join executes the ε-distance join with universal replication —
// BuildPlan followed by a single Execute.
func Join(rs, ss []tuple.Tuple, cfg Config) (*Result, error) {
	p, err := BuildPlan(rs, ss, cfg)
	if err != nil {
		return nil, err
	}
	return p.Execute(core.Exec{Collect: cfg.Collect})
}

// Res returns the grid resolution multiplier of the variant.
func (c Config) Res() float64 {
	if c.Variant == EpsGrid {
		return 1
	}
	return 2
}

// RefPointKernel exposes the reference-point kernel so execution
// backends (internal/cluster's workers) can rebuild it from the plan's
// wire kernel description.
func RefPointKernel(g *grid.Grid) dpe.Kernel { return refPointKernel(g) }

// refPointKernel wraps the plane sweep with the reference-point filter:
// a pair is emitted only by the cell containing its midpoint.
func refPointKernel(g *grid.Grid) dpe.Kernel {
	return func(cell int, rs, ss []tuple.Tuple, eps float64, emit sweep.Emit) {
		sweep.PlaneSweep(rs, ss, eps, func(r, s tuple.Tuple) {
			mid := geom.Point{X: (r.Pt.X + s.Pt.X) / 2, Y: (r.Pt.Y + s.Pt.Y) / 2}
			mx, my := g.Locate(mid)
			if g.CellID(mx, my) == cell {
				emit(r, s)
			}
		})
	}
}

// replicatesR reports whether the R input is the replicated one.
func (c Config) replicatesR(nr, ns int) bool {
	switch c.Variant {
	case UniR:
		return true
	case UniS:
		return false
	default: // EpsGrid replicates the set with the fewest objects.
		return nr <= ns
	}
}
