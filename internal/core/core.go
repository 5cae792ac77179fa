// Package core implements the paper's contribution end to end: the
// parallel ε-distance spatial join with adaptive replication (Algorithm 5).
//
// The pipeline follows the paper's phases exactly:
//
//  1. Sampling: a Bernoulli sample of each input feeds per-cell statistics
//     (paper default 3%).
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
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
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

// Config parameterises one adaptive join execution. Zero values select
// the paper's defaults where one exists.
type Config struct {
	Eps            float64           // join distance threshold (required, > 0)
	Res            float64           // grid resolution multiplier k (cell side k·ε); default 2
	Policy         agreements.Policy // LPiB (default) or DIFF; UniR/UniS give PBSM-as-agreements
	SampleFraction float64           // default 0.03 (the paper's 3%)
	Seed           int64             // sampling seed
	Workers        int               // simulated nodes; default GOMAXPROCS
	Partitions     int               // reduce partitions; default 8 × workers
	UseLPT         bool              // LPT cell placement instead of hash partitioning
	Order          agreements.Order  // Algorithm 1 edge order; OrderPaper by default
	Kernel         dpe.Kernel        // local join kernel; the columnar plane sweep when nil (dpe.ScalarKernel forces the scalar oracle)
	Simple         bool              // non-duplicate-free assignment + distinct() (Table 6)
	SelfFilter     bool              // self-join mode: keep only pairs with r.ID < s.ID
	Collect        bool              // materialise result pairs
	Bounds         *geom.Rect        // data-space MBR; computed from the inputs when nil
	NetBandwidth   float64           // simulated bytes/s per worker link (0: off)
	PoolSize       int               // OS-level goroutine pool cap; default GOMAXPROCS

	// Engine selects the execution backend for the partition-level joins:
	// nil runs them on the in-process local engine; a cluster engine ships
	// them to remote worker processes. With a non-nil Engine the plan also
	// carries the encoded graph of agreements and LPT placement as the
	// broadcast blob workers receive (Algorithm 5's driver broadcast, in
	// real bytes).
	Engine dpe.Engine

	// SampleR and SampleS optionally supply pre-drawn Bernoulli samples of
	// the inputs (e.g. cached by a serving layer across ε re-plans); when
	// nil, samples are drawn from the inputs with SampleFraction and Seed.
	SampleR, SampleS []tuple.Tuple

	// Tracer records phase spans (plan → sample/partition/replicate/
	// shuffle, then per-partition tasks at execute time) under
	// TraceParent; nil disables tracing at zero cost.
	Tracer      *obs.Tracer
	TraceParent obs.SpanID
}

// Result is the outcome of an adaptive join.
type Result struct {
	dpe.Metrics
	Pairs []tuple.Pair      // when Config.Collect
	Grid  *grid.Grid        // the grid used
	Graph *agreements.Graph // the resolved graph of agreements
}

// Plan is a reusable adaptive-join execution plan: the grid, sampled
// statistics, resolved graph of agreements, cell placement, and the
// already-replicated partition-bucketed tuples. Building one pays the
// whole construction pipeline once; Execute then runs only the
// partition-level joins and may be called repeatedly and concurrently.
type Plan struct {
	Grid  *grid.Grid
	Stats *grid.Stats
	Graph *agreements.Graph

	prep *dpe.Prepared
	cfg  Config

	// SampleTime and BuildTime are the construction-phase timings;
	// BroadcastBytes is the graph's wire size per receiving node.
	SampleTime, BuildTime time.Duration
	BroadcastBytes        int64
}

// BuildPlan runs phases 1-3 of the paper's pipeline — sampling, graph of
// agreements, cell placement, mapping and shuffling — and returns the
// reusable plan without joining the partitions.
func BuildPlan(rs, ss []tuple.Tuple, cfg Config) (*Plan, error) {
	if cfg.Eps <= 0 {
		return nil, fmt.Errorf("core: Eps must be positive, got %v", cfg.Eps)
	}
	if cfg.Res == 0 {
		cfg.Res = 2
	}
	if cfg.Res < 2 {
		return nil, fmt.Errorf("core: grid resolution %v violates the l >= 2ε requirement of agreements", cfg.Res)
	}
	if cfg.SampleFraction == 0 {
		cfg.SampleFraction = sample.DefaultFraction
	}
	workers, partitions := Parallelism(cfg.Workers, cfg.Partitions)

	bounds := DataBounds(cfg.Bounds, rs, ss)
	g := grid.New(bounds, cfg.Eps, cfg.Res)

	planSp := cfg.Tracer.Start(cfg.TraceParent, obs.SpanPlan)
	planSp.SetInt("cells", int64(g.NumCells()))

	// Phase 1: sampling (skipped when the caller supplies cached samples).
	sampleSp := cfg.Tracer.Start(planSp.SpanID(), obs.SpanSample)
	start := time.Now()
	st := grid.NewStats(g)
	sr, sSample := cfg.SampleR, cfg.SampleS
	if sr == nil {
		sr = sample.Bernoulli(rs, cfg.SampleFraction, cfg.Seed)
	}
	if sSample == nil {
		sSample = sample.Bernoulli(ss, cfg.SampleFraction, cfg.Seed+1)
	}
	st.AddAll(tuple.R, sr)
	st.AddAll(tuple.S, sSample)
	sampleTime := time.Since(start)
	sampleSp.SetInt("sample_r", int64(len(sr))).SetInt("sample_s", int64(len(sSample)))
	sampleSp.End()

	// Phase 2: graph of agreements + duplicate-free resolution, and the
	// cell placement.
	partSp := cfg.Tracer.Start(planSp.SpanID(), obs.SpanPartition)
	start = time.Now()
	gr := agreements.BuildOrdered(st, cfg.Policy, cfg.Order)
	var part dpe.Partitioner = dpe.HashPartitioner{N: partitions}
	if cfg.UseLPT {
		costs := gr.EstimatedCosts(st)
		part = dpe.ExplicitPartitioner{Table: lpt.Assign(costs, partitions), N: partitions}
	}
	buildTime := time.Since(start)
	if partSp != nil {
		marked, locked := edgeCounts(gr)
		partSp.SetInt("partitions", int64(partitions))
		partSp.SetInt("marked_edges", marked).SetInt("locked_edges", locked)
	}
	partSp.End()

	// Phase 3: mapping and shuffling on the engine.
	assign := func(p geom.Point, set tuple.Set, dst []int) []int {
		return replicate.Adaptive(gr, p, set, dst)
	}
	if cfg.Simple {
		assign = func(p geom.Point, set tuple.Set, dst []int) []int {
			return replicate.AdaptiveSimple(gr, p, set, dst)
		}
	}
	spec := dpe.Spec{
		R: rs, S: ss, Eps: cfg.Eps,
		AssignR: assign, AssignS: assign,
		Part:       part,
		Workers:    workers,
		Kernel:     cfg.Kernel,
		Collect:    cfg.Collect,
		Dedup:      cfg.Simple,
		SelfFilter: cfg.SelfFilter,

		NetBandwidth: cfg.NetBandwidth,
		PoolSize:     cfg.PoolSize,
		Engine:       cfg.Engine,

		Tracer:      cfg.Tracer,
		TraceParent: cfg.TraceParent,

		// The adaptive assigns emit cell ids of the 2ε-grid; ranking
		// them along the Hilbert curve keeps adjacent slab groups
		// spatially adjacent.
		Cells:    gr.Grid.NumCells(),
		CellRank: colpipe.HilbertRanks(gr.Grid.NX, gr.Grid.NY),
	}
	if cfg.Engine != nil {
		spec.Broadcast = broadcastBlob(gr, part)
	}
	planSp.End()
	prep, err := dpe.Prepare(spec)
	if err != nil {
		return nil, err
	}
	// The resolved graph is broadcast to every worker (Algorithm 5,
	// line 6); account its wire size per receiving node.
	nodes := workers
	if nodes <= 0 {
		nodes = defaultWorkers()
	}
	return &Plan{
		Grid: g, Stats: st, Graph: gr,
		prep: prep, cfg: cfg,
		SampleTime: sampleTime, BuildTime: buildTime,
		BroadcastBytes: int64(gr.EncodedSize()) * int64(nodes),
	}, nil
}

// Exec are the per-execution knobs of a Plan.
type Exec struct {
	// Eps optionally re-sweeps the plan with a smaller threshold; any
	// value in (0, plan ε] is correct and duplicate-free. Zero means the
	// plan's ε.
	Eps float64
	// Collect materialises the result pairs.
	Collect bool
	// Ctx cancels an in-flight execution; nil means context.Background().
	Ctx context.Context
	// Tracer records this execution's spans (tasks, supplementary join,
	// dedup) under TraceParent; nil falls back to the plan's build-time
	// tracer, so one-shot joins get a single tree.
	Tracer      *obs.Tracer
	TraceParent obs.SpanID
}

// Eps returns the distance threshold the plan was built for.
func (p *Plan) Eps() float64 { return p.cfg.Eps }

// FootprintBytes returns the wire size of the partitioned tuples the
// plan retains — what a plan cache should account for.
func (p *Plan) FootprintBytes() int64 { return p.prep.FootprintBytes() }

// Replicated returns the replicated objects the plan serves per Execute.
func (p *Plan) Replicated() int64 { return p.prep.Replicated() }

// Execute runs the partition-level joins of the plan. Safe for
// concurrent use; construction metrics are carried into every result.
func (p *Plan) Execute(e Exec) (*Result, error) {
	ctx := e.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := p.prep.ExecuteContext(ctx, dpe.ExecOptions{
		Eps: e.Eps, Collect: e.Collect,
		Tracer: e.Tracer, TraceParent: e.TraceParent,
	})
	if err != nil {
		return nil, err
	}
	res.SampleTime = p.SampleTime
	res.BuildTime = p.BuildTime
	// A distributed engine reports the broadcast it actually shipped;
	// otherwise fall back to the modelled per-node graph size.
	if res.BroadcastBytes == 0 {
		res.BroadcastBytes = p.BroadcastBytes
	}
	return &Result{Metrics: res.Metrics, Pairs: res.Pairs, Grid: p.Grid, Graph: p.Graph}, nil
}

// broadcastBlob serialises what the driver ships to every worker of a
// distributed engine: the resolved graph of agreements (its own wire
// format) followed by the explicit cell placement table, when one exists.
func broadcastBlob(gr *agreements.Graph, part dpe.Partitioner) []byte {
	var buf bytes.Buffer
	buf.Grow(gr.EncodedSize())
	gr.Encode(&buf) // cannot fail on a bytes.Buffer
	if ep, ok := part.(dpe.ExplicitPartitioner); ok {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(ep.Table)))
		for _, p := range ep.Table {
			b = binary.LittleEndian.AppendUint32(b, uint32(p))
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

// Join executes the ε-distance join R ⋈ε S with adaptive replication —
// BuildPlan followed by a single Execute.
func Join(rs, ss []tuple.Tuple, cfg Config) (*Result, error) {
	p, err := BuildPlan(rs, ss, cfg)
	if err != nil {
		return nil, err
	}
	return p.Execute(Exec{Collect: cfg.Collect})
}

// Parallelism resolves the worker and partition counts shared by every
// join orchestrator in the library: workers defaults to 0 (letting the
// engine pick GOMAXPROCS), partitions to 8 × workers — the paper's ratio
// of 96 Spark partitions on 12 nodes.
func Parallelism(workers, partitions int) (int, int) {
	if partitions <= 0 {
		w := workers
		if w <= 0 {
			w = defaultWorkers()
		}
		partitions = 8 * w
	}
	return workers, partitions
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// edgeCounts totals the marked and locked directed edges across the
// graph's quartet subgraphs — the duplicate-free resolution state the
// plan span reports.
func edgeCounts(gr *agreements.Graph) (marked, locked int64) {
	for q := range gr.Subs {
		s := &gr.Subs[q]
		// Locks are only ever placed alongside a mark, so an unmarked
		// subgraph contributes to neither count.
		if !s.AnyMarked() {
			continue
		}
		marked += int64(s.MarkedEdges())
		for i := grid.Pos(0); i < grid.NumPos; i++ {
			for j := grid.Pos(0); j < grid.NumPos; j++ {
				if i != j && s.Locked(i, j) {
					locked++
				}
			}
		}
	}
	return marked, locked
}

// DataBounds returns explicit bounds if given, else the MBR of both
// inputs, else the unit square so empty joins still build a valid grid.
func DataBounds(explicit *geom.Rect, rs, ss []tuple.Tuple) geom.Rect {
	if explicit != nil {
		return *explicit
	}
	b := geom.EmptyRect()
	for _, t := range rs {
		b = b.ExtendPoint(t.Pt)
	}
	for _, t := range ss {
		b = b.ExtendPoint(t.Pt)
	}
	if b.IsEmpty() {
		return geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	}
	// A degenerate (zero-extent) axis still needs a positive span for
	// grid construction.
	if b.Width() == 0 {
		b.MaxX++
	}
	if b.Height() == 0 {
		b.MaxY++
	}
	return b
}
