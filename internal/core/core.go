// Package core is the library's one point-join orchestrator (BuildPlan)
// and implements the paper's contribution end to end as its default
// scheme: the parallel ε-distance spatial join with adaptive replication
// (Algorithm 5). The baselines are other schemes on the same orchestrator.
//
// The adaptive pipeline follows the paper's phases exactly:
//
//  1. Sampling: a sample of each input, drawn by tuple id, feeds per-cell
//     statistics (paper default 3%).
//  2. Agreement-based grid construction: a 2ε-resolution grid is built
//     over the data MBR and the graph of agreements is instantiated with
//     the LPiB or DIFF policy, then made duplicate-free with edge marking
//     and locking (Algorithm 1).
//  3. Spatial mapping: every tuple is flat-mapped to the 1D cell keys the
//     adaptive replication assigns it (Algorithms 2-4).
//  4. Partition assignment and join: cells are routed to reduce
//     partitions (hash, or the LPT placement computed from sampled cost
//     estimates), shuffled, and each cell is joined with a plane sweep
//     followed by the ε-distance refinement.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/lpt"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/replicate"
	"spatialjoin/internal/sample"
	"spatialjoin/internal/tuple"
)

// Config parameterises one join execution. Zero values select the
// paper's defaults where one exists.
type Config struct {
	Eps            float64           // join distance threshold (required, finite, > 0)
	Res            float64           // grid resolution multiplier k (cell side k·ε); default 2
	Policy         agreements.Policy // LPiB (default) or DIFF; UniR/UniS give PBSM-as-agreements
	SampleFraction float64           // default 0.03 (the paper's 3%)
	Seed           int64             // sampling seed
	Workers        int               // simulated nodes; default GOMAXPROCS
	Partitions     int               // reduce partitions; default 8 × workers
	UseLPT         bool              // LPT cell placement instead of hash partitioning
	Order          agreements.Order  // Algorithm 1 edge order; OrderPaper by default
	Kernel         dpe.Kernel        // per-cell join over the slab lanes; colsweep.SweepSorted when nil
	Simple         bool              // non-duplicate-free assignment + distinct() (Table 6)
	SelfFilter     bool              // self-join mode: keep only pairs with r.ID < s.ID
	Collect        bool              // materialise result pairs
	Bounds         *geom.Rect        // data-space MBR; computed from the inputs when nil
	PoolSize       int               // OS-level goroutine pool cap; default GOMAXPROCS

	// Scheme is the algorithm: which cells a point is assigned to. Nil is
	// the paper's adaptive replication, which Res, Policy, UseLPT, Order
	// and Simple parameterise; the baselines (internal/pbsm,
	// internal/sedonasim) supply their own.
	Scheme Scheme

	// Engine selects the execution backend for the partition-level joins:
	// nil runs them on the in-process local engine; a cluster engine ships
	// them to remote worker processes. The plan is built here either way,
	// so a cluster engine ships finished partitions, not the graph.
	Engine dpe.Engine

	// Tracer records phase spans (plan → sample/partition/replicate/
	// shuffle, then per-partition tasks at execute time) under
	// TraceParent; nil disables tracing at zero cost.
	Tracer      *obs.Tracer
	TraceParent obs.SpanID
}

// Scheme is the one thing the point algorithms differ in. BuildPlan
// hands it the resolved Input, the join's dpe.Spec with everything
// common already filled in, and the Plan to report on; the scheme fills
// in what varies — Cells (and CellRank), AssignR/AssignS, Part, Kernel
// with its KernelDesc, Dedup — and the Plan's Grid, Graph,
// SampleTime, BuildTime and BroadcastBytes where it has them.
//
// A scheme must guarantee what dpe relies on: each Assign emits the
// native cell first, every id lies in [0, Cells), and every pair within
// ε′ of each other is co-located in exactly one cell for any ε′ ≤ Eps
// (or, with Dedup, in at least one), so one plan serves every smaller
// threshold.
type Scheme func(in Input, spec *dpe.Spec, p *Plan) error

// Input is what BuildPlan resolved before calling the scheme.
type Input struct {
	Config     // defaults applied (SampleFraction, Workers)
	R, S       []tuple.Tuple
	Bounds     geom.Rect // Config.Bounds, or the inputs' MBR
	Partitions int       // reduce partitions, default applied
	Span       *obs.Span // the plan span: parent of the scheme's own spans
}

// Grid returns the grid of cell side res·ε over the bounds, or an error
// when it would exceed grid.MaxCells or, with the plan's workers and
// partitions, dpe.CheckParallelism's budget. Every plan keeps dense
// Cells-sized tables (sample statistics, agreements, the rank → partition
// table, one histogram per map worker), so the checks run before any of
// them exists.
func (in Input) Grid(res float64) (*grid.Grid, error) {
	if err := grid.Check(in.Bounds, in.Eps, res); err != nil {
		return nil, fmt.Errorf("core: eps %v to join %d input rows: %w", in.Eps, len(in.R)+len(in.S), err)
	}
	g := grid.New(in.Bounds, in.Eps, res)
	if err := dpe.CheckParallelism(in.Workers, in.Partitions, g.NumCells()); err != nil {
		return nil, fmt.Errorf("core: eps %v: %w", in.Eps, err)
	}
	return g, nil
}

// planWidth is how many goroutines the plan's CPU-bound steps (sampling,
// the graph of agreements, LPT cost estimates) may run on: PoolSize,
// which defaults to GOMAXPROCS, and never more than GOMAXPROCS, since
// those steps never block. Every plan is the same at every width.
func (in Input) planWidth() int {
	if n := runtime.GOMAXPROCS(0); in.PoolSize <= 0 || in.PoolSize > n {
		return n
	}
	return in.PoolSize
}

// Result is the outcome of a join.
type Result struct {
	dpe.Metrics
	Pairs []tuple.Pair      // when Config.Collect
	Grid  *grid.Grid        // the grid used (nil for gridless schemes)
	Graph *agreements.Graph // the resolved graph of agreements (adaptive scheme only)
}

// Plan is a reusable join execution plan: what the scheme built (grid,
// resolved graph of agreements) and the already-replicated
// partition-bucketed tuples. Building one pays the
// whole construction pipeline once; Execute then runs only the
// partition-level joins and may be called repeatedly and concurrently.
type Plan struct {
	Grid  *grid.Grid
	Graph *agreements.Graph

	prep *dpe.Prepared

	// SampleTime and BuildTime are the construction-phase timings;
	// BroadcastBytes is the modelled Algorithm-5 broadcast, the graph's
	// wire size times the workers.
	SampleTime, BuildTime time.Duration
	BroadcastBytes        int64
}

// BuildPlan is the library's one point-join orchestrator. It validates ε,
// resolves parallelism and bounds, has the scheme fill in the assignment
// (for the default adaptive scheme: phases 1-2 of the paper's pipeline,
// sampling and the graph of agreements with its cell placement), then
// maps and shuffles on the engine, and returns the reusable plan without
// joining the partitions.
func BuildPlan(rs, ss []tuple.Tuple, cfg Config) (*Plan, error) {
	if !(cfg.Eps > 0) || math.IsInf(cfg.Eps, 0) {
		return nil, fmt.Errorf("core: Eps must be positive and finite, got %v", cfg.Eps)
	}
	if cfg.SampleFraction == 0 {
		cfg.SampleFraction = sample.DefaultFraction
	}
	scheme := cfg.Scheme
	if scheme == nil {
		scheme = adaptive
	}
	bounds, err := DataBounds(cfg.Bounds, rs, ss)
	if err != nil {
		return nil, err
	}
	var partitions int
	cfg.Workers, partitions = Parallelism(cfg.Workers, cfg.Partitions)
	planSp := cfg.Tracer.Start(cfg.TraceParent, obs.SpanPlan)
	in := Input{
		Config: cfg, R: rs, S: ss,
		Bounds:     bounds,
		Partitions: partitions,
		Span:       planSp,
	}
	spec := dpe.Spec{
		R: rs, S: ss, Eps: cfg.Eps,
		Workers:    cfg.Workers,
		Kernel:     cfg.Kernel,
		Collect:    cfg.Collect,
		SelfFilter: cfg.SelfFilter,

		PoolSize: cfg.PoolSize,
		Engine:   cfg.Engine,

		Tracer:      cfg.Tracer,
		TraceParent: cfg.TraceParent,
	}
	p := &Plan{}
	err = scheme(in, &spec, p)
	planSp.SetInt("cells", int64(spec.Cells))
	planSp.End()
	if err != nil {
		return nil, err
	}
	if p.prep, err = dpe.Prepare(spec); err != nil {
		return nil, err
	}
	return p, nil
}

// adaptive is the default scheme, the paper's contribution: sample both
// inputs, then assign by the graph of agreements built on the sample.
func adaptive(in Input, spec *dpe.Spec, p *Plan) error {
	st, err := sampleStats(in, p)
	if err != nil {
		return err
	}
	assignAdaptive(in, spec, p, st)
	return nil
}

// sampleStats is phase 1: it builds the scheme's Res·ε grid and the
// per-cell statistics of each input's sample — the tuples sample.Keep
// selects by id (R with Seed, S with Seed+1), so the statistics do not
// depend on input order — and records them on p.
func sampleStats(in Input, p *Plan) (*grid.Stats, error) {
	res := in.Res
	if res == 0 {
		res = 2
	}
	if res < 2 {
		return nil, fmt.Errorf("core: grid resolution %v violates the l >= 2ε requirement of agreements", res)
	}
	g, err := in.Grid(res)
	if err != nil {
		return nil, err
	}
	sampleSp := in.Tracer.Start(in.Span.SpanID(), obs.SpanSample)
	start := time.Now()
	st := grid.NewStats(g)
	var ss []tuple.Tuple
	sampled := make(chan struct{})
	sampleS := func() {
		defer close(sampled)
		ss = sample.Bernoulli(in.S, in.SampleFraction, in.Seed+1)
	}
	if in.planWidth() > 1 {
		go sampleS()
	} else {
		sampleS()
	}
	sr := sample.Bernoulli(in.R, in.SampleFraction, in.Seed)
	<-sampled
	st.AddAll(tuple.R, sr)
	st.AddAll(tuple.S, ss)
	p.Grid, p.SampleTime = g, time.Since(start)
	sampleSp.SetInt("sample_r", int64(len(sr))).SetInt("sample_s", int64(len(ss)))
	sampleSp.End()
	return st, nil
}

// assignAdaptive is phases 2-3 on sampled statistics: the graph of
// agreements with its duplicate-free resolution (built with Config.Policy
// and Order), the cell placement, and the adaptive assignment written
// into spec.
func assignAdaptive(in Input, spec *dpe.Spec, p *Plan, st *grid.Stats) {
	partSp := in.Tracer.Start(in.Span.SpanID(), obs.SpanPartition)
	start := time.Now()
	gr := agreements.BuildParallel(st, in.Policy, in.Order, in.planWidth())
	spec.Part = dpe.HashPartitioner{N: in.Partitions}
	if in.UseLPT {
		costs := gr.EstimatedCostsParallel(st, in.planWidth())
		spec.Part = dpe.ExplicitPartitioner{Table: lpt.Assign(costs, in.Partitions), N: in.Partitions}
	}
	p.BuildTime = time.Since(start)
	if partSp != nil {
		marked, locked := gr.EdgeCounts()
		partSp.SetInt("partitions", int64(in.Partitions))
		partSp.SetInt("marked_edges", marked).SetInt("locked_edges", locked)
	}
	partSp.End()

	spec.AssignR = func(pt geom.Point, set tuple.Set, dst []int) []int {
		return replicate.Adaptive(gr, pt, set, dst)
	}
	if in.Simple {
		spec.AssignR = func(pt geom.Point, set tuple.Set, dst []int) []int {
			return replicate.AdaptiveSimple(gr, pt, set, dst)
		}
	}
	spec.AssignS = spec.AssignR
	spec.Dedup = in.Simple
	// The adaptive assigns emit cell ids of the 2ε-grid; ranking them
	// along the Hilbert curve keeps adjacent slab groups spatially
	// adjacent.
	spec.Cells = gr.Grid.NumCells()
	spec.CellRank = colpipe.HilbertRanks(gr.Grid.NX, gr.Grid.NY)
	// Algorithm 5 (line 6) broadcasts the resolved graph to every
	// worker; account its wire size per receiving node. No engine here
	// ships it: the cluster coordinator maps and replicates itself.
	p.Graph = gr
	p.BroadcastBytes = int64(gr.EncodedSize()) * int64(in.Workers)
}

// Exec are the per-execution knobs of a Plan — the engine's own: Eps in
// (0, plan ε] re-sweeps with a smaller threshold, Collect materialises the
// pairs, Tracer/TraceParent record this execution's spans (nil falls back
// to the plan's build-time tracer, so one-shot joins get a single tree).
type Exec = dpe.ExecOptions

// Eps returns the distance threshold the plan was built for.
func (p *Plan) Eps() float64 { return p.prep.Eps() }

// FootprintBytes returns the wire size of the partitioned tuples the
// plan retains — what a plan cache should account for.
func (p *Plan) FootprintBytes() int64 { return p.prep.FootprintBytes() }

// Replicated returns the replicated objects the plan serves per Execute.
func (p *Plan) Replicated() int64 { return p.prep.Replicated() }

// Execute runs the partition-level joins of the plan. Safe for
// concurrent use; construction metrics are carried into every result.
func (p *Plan) Execute(e Exec) (*Result, error) {
	return p.ExecuteContext(context.Background(), e)
}

// ExecuteContext is Execute with cancellation of the in-flight joins.
func (p *Plan) ExecuteContext(ctx context.Context, e Exec) (*Result, error) {
	res, err := p.prep.ExecuteContext(ctx, e)
	if err != nil {
		return nil, err
	}
	res.SampleTime = p.SampleTime
	res.BuildTime = p.BuildTime
	res.BroadcastBytes = p.BroadcastBytes
	return &Result{Metrics: res.Metrics, Pairs: res.Pairs, Grid: p.Grid, Graph: p.Graph}, nil
}

// Join executes the ε-distance join R ⋈ε S — BuildPlan followed by a
// single Execute.
func Join(rs, ss []tuple.Tuple, cfg Config) (*Result, error) {
	p, err := BuildPlan(rs, ss, cfg)
	if err != nil {
		return nil, err
	}
	return p.Execute(Exec{Collect: cfg.Collect})
}

// Parallelism resolves the worker and partition counts shared by every
// join orchestrator in the library: workers defaults to GOMAXPROCS (the
// engine's own default), partitions to 8 × workers — the paper's ratio of
// 96 Spark partitions on 12 nodes.
func Parallelism(workers, partitions int) (int, int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if partitions <= 0 {
		partitions = 8 * workers
	}
	return workers, partitions
}

// DataBounds returns explicit bounds if given, else the MBR of both
// inputs, else the unit square so empty joins still build a valid grid.
// Deriving the MBR returns a *tuple.NonFiniteError for the first row
// whose point is not finite; explicit bounds leave that check to the
// map phase (dpe.Prepare).
func DataBounds(explicit *geom.Rect, rs, ss []tuple.Tuple) (geom.Rect, error) {
	if explicit != nil {
		return *explicit, nil
	}
	b := geom.EmptyRect()
	for set, in := range [2][]tuple.Tuple{rs, ss} {
		for i, t := range in {
			if !t.Pt.Finite() {
				return geom.Rect{}, &tuple.NonFiniteError{Set: tuple.Set(set), Row: i, ID: t.ID, Pt: t.Pt}
			}
			b = b.ExtendPoint(t.Pt)
		}
	}
	if b.IsEmpty() {
		return geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, nil
	}
	// A degenerate (zero-extent) axis still needs a positive span for
	// grid construction.
	if b.Width() == 0 {
		b.MaxX++
	}
	if b.Height() == 0 {
		b.MaxY++
	}
	return b, nil
}
