// Package dpe (data-parallel engine) is the library's Apache Spark
// substitute: it executes the keyed map → shuffle → partition-join
// pipeline of the paper's Algorithm 5, with the byte-level shuffle
// accounting the paper's evaluation reports. There is one execution
// format — the columnar slab of internal/colpipe — and every join
// (adaptive, PBSM, clone, Sedona-like, extended-object, two-layer) runs
// on it; the algorithms differ only in their assignment and kernel.
//
// The correspondence to Spark is deliberate and close:
//
//   - an input split per worker plays the role of an HDFS partition,
//   - Assign is the flatMapToPair that keys each tuple by the 1D cell ids
//     the replication algorithm chooses; a map worker runs it once over
//     its split and logs only the rank of every replica and a per-rank
//     row count — the coordinates stay in the input tuples,
//   - a Partitioner routes cell ids to reduce partitions (hash-based, or
//     an explicit LPT placement), and each reduce partition is owned by a
//     worker round-robin,
//   - shuffled bytes are computed from the tuple wire-size model, and the
//     subset that crosses worker boundaries is reported as "shuffle remote
//     reads",
//   - the shuffle is one parallel counting sort into one slab per side
//     per reduce partition: a walk over the ranks turns the workers'
//     counts into every slab's group directory and every worker's write
//     cursors, the workers replay their logs and write each replica from
//     its input tuple straight to its final lane position, and each
//     group is x-sorted once; the partition join merges the two slabs'
//     group lists and sweeps each matched cell in place, applying the
//     ε-distance refinement (or hands the cell's rows to the spec's
//     Kernel).
//
// The reduce phase runs on a pluggable Engine: the default local engine
// joins partitions on an in-process goroutine pool of simulated workers,
// while internal/cluster provides a real multi-process backend that ships
// partitions to worker processes over TCP and measures actual shuffle
// bytes, retries and speculative re-executions.
//
// The engine measures the same three quantities as the paper's cluster
// runs — replicated objects, shuffle remote reads, execution time — with
// the same causal structure (replication drives shuffle volume, shuffle
// volume and per-cell cost drive time).
package dpe

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/dedup"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/tuple"
)

// Assign maps a point of one input set to the cells (partitions keys) it
// is assigned to; the first id must be the native cell.
type Assign func(p geom.Point, set tuple.Set, dst []int) []int

// TupleAssign is the row variant of Assign, for join families whose
// assignment needs more than the point: it is handed the tuple's row in
// its input (Spec.R or Spec.S), so it can read what the caller keeps per
// row beside the tuples — the two-layer non-point join reads the
// object's MBR from its table. When set on a Spec it takes precedence
// over the point Assign for that side. The contract is the same: append
// the cell ids of every replica to dst and return it, with the native
// cell (the one that owns the tuple) first.
type TupleAssign func(row int, set tuple.Set, dst []int) []int

// Partitioner routes cell ids to reduce partitions.
type Partitioner interface {
	// PartitionOf returns the reduce partition of a cell id.
	PartitionOf(cell int) int
	// NumPartitions returns the number of reduce partitions.
	NumPartitions() int
}

// HashPartitioner routes cells to partitions by a mixed hash — the
// engine's default, mirroring Spark's HashPartitioner.
type HashPartitioner struct{ N int }

// PartitionOf implements Partitioner.
func (h HashPartitioner) PartitionOf(cell int) int {
	x := uint64(cell) * 0x9e3779b97f4a7c15
	x ^= x >> 32
	return int(x % uint64(h.N))
}

// NumPartitions implements Partitioner.
func (h HashPartitioner) NumPartitions() int { return h.N }

// ExplicitPartitioner routes cells via a precomputed table (the LPT
// placement). Cells outside the table fall back to hashing.
type ExplicitPartitioner struct {
	Table []int
	N     int
}

// PartitionOf implements Partitioner.
func (e ExplicitPartitioner) PartitionOf(cell int) int {
	if cell >= 0 && cell < len(e.Table) {
		return e.Table[cell]
	}
	return HashPartitioner{N: e.N}.PartitionOf(cell)
}

// NumPartitions implements Partitioner.
func (e ExplicitPartitioner) NumPartitions() int { return e.N }

// Kernel joins the R and S rows of one cell, adding every pair it
// matches to out exactly once (through out.Add, or a colsweep sweep
// into out). The default (nil) is colsweep.SweepSorted, run in place
// over the slab lanes. A non-nil Kernel is called once per matched cell
// with zero-copy views of the cell's x-sorted lanes (and its payloads,
// when the plan carries a payload lane); it must not retain or modify
// them. The clone-join baseline substitutes a reference-point filter
// (which is why the kernel receives the cell id it is joining), the
// Sedona-style baseline an R-tree build-and-probe, the extended-object
// join an exact refinement and the two-layer join its class mini-join.
type Kernel func(cell int, r, s *colpipe.Group, eps float64, out *colsweep.Sink)

// KernelKind enumerates the join kernels a remote worker can rebuild
// from a wire description.
type KernelKind uint8

const (
	// KernelSweep is the default plane-sweep kernel.
	KernelSweep KernelKind = iota
	// KernelRefPoint is the reference-point filtered sweep of the clone
	// join; it needs the grid geometry to locate pair midpoints.
	KernelRefPoint
	// KernelCustom marks a kernel that cannot be described on the wire
	// (e.g. the Sedona R-tree kernel); such plans execute locally only.
	KernelCustom
	// KernelTwoLayer is the class-based non-point mini-join kernel of
	// the two-layer partitioning; it needs the tile grid geometry, the
	// predicate, and the refinement ε to rebuild remotely.
	KernelTwoLayer
)

// KernelDesc is the wire-reconstructible description of a join kernel.
type KernelDesc struct {
	Kind KernelKind
	// Grid geometry, used by KernelRefPoint.
	Bounds           geom.Rect
	GridEps, GridRes float64
	// Tile grid geometry and refinement parameters, used by
	// KernelTwoLayer (Bounds doubles as the tile grid's frame).
	TileNX, TileNY int
	Predicate      uint8
	RefineEps      float64
}

// Spec describes one join execution.
type Spec struct {
	R, S    []tuple.Tuple
	Eps     float64
	AssignR Assign // assignment rule for R tuples
	AssignS Assign // assignment rule for S tuples (may differ, e.g. PBSM)
	// TupleAssignR/TupleAssignS, when non-nil, replace AssignR/AssignS
	// with row assignment (payload-aware joins).
	TupleAssignR TupleAssign
	TupleAssignS TupleAssign
	Part         Partitioner
	Workers      int // simulated cluster nodes; defaults to GOMAXPROCS
	// Kernel is the per-cell join callback; nil is the in-place columnar
	// plane sweep. Tuple payloads ride the shuffle into the slabs (where
	// a Kernel may read them) only when TupleAssignR or TupleAssignS is
	// set; otherwise the plan ships points and accounts payload bytes in
	// the model alone.
	Kernel  Kernel
	Collect bool // materialise result pairs (else count + checksum only)
	Dedup   bool // run a distinct() pass after the join (Table 6 variant)
	// SelfFilter keeps only pairs with r.ID < s.ID — the self-join mode,
	// where both inputs are the same set: it drops identity pairs and
	// one of the two orientations of every match.
	SelfFilter bool
	// PoolSize caps the OS-level goroutine pool that runs the simulated
	// workers in the map and local reduce phases. Zero means GOMAXPROCS.
	// It bounds real parallelism only; Workers sets the simulated cluster
	// size that shuffle accounting and busy clocks are kept per.
	PoolSize int
	// Engine is the execution backend for the reduce phase; nil selects
	// the in-process local engine. A cluster engine instead ships
	// partitions to remote worker processes and measures real bytes.
	Engine Engine
	// KernelDesc describes Kernel in a form a remote worker can
	// reconstruct. Leave zero when Kernel is nil (plane sweep). A non-nil
	// Kernel with a zero descriptor is treated as KernelCustom: the plan
	// is local-only and cluster engines reject it.
	KernelDesc KernelDesc
	// Tracer records phase and task spans for the join; nil (the
	// default) disables tracing at zero cost. TraceParent, when set, is
	// the span the pipeline's phase spans are parented under.
	Tracer      *obs.Tracer
	TraceParent obs.SpanID

	// Cells declares that every cell id the Assigns produce lies in
	// [0, Cells). Required: the map phase counts replicas per cell rank
	// and routes them through a Cells-sized partition table, and the
	// shuffle counting-sorts on both.
	Cells int
	// CellRank optionally maps cell id → slab group rank (any bijection
	// onto [0, Cells)); nil means identity. Orchestrators pass a
	// Hilbert-curve ranking so adjacent slab groups are
	// spatially adjacent (see colpipe.HilbertRanks). Ignored when Kernel
	// is set: a kernel is handed its cell id, which the slab — locally
	// and on a remote worker — carries as the group rank.
	CellRank []int32
}

// Engine executes the reduce phase of a Prepared join. The eps in opt is
// already resolved (non-zero, validated against the plan) and opt.Collect
// already accounts for a pending distinct() pass; the dedup pass itself
// runs in ExecuteContext after the engine returns.
type Engine interface {
	ExecutePrepared(ctx context.Context, pr *Prepared, opt ExecOptions) (*Result, error)
}

// ClusterMetrics are the measured-on-the-wire counters of a distributed
// engine run. All fields are zero when the local engine executed the
// join.
type ClusterMetrics struct {
	Workers int // live worker processes that served the run

	// TaskBytesLocal and TaskBytesRemote split the streamed task payload
	// bytes by whether the receiving worker is the one the record's map
	// split is co-located with (a "local read" in the paper's shuffle
	// model) — measured on real encoded bytes, unlike the wire-size model
	// of ShuffledBytes/RemoteBytes.
	TaskBytesLocal  int64
	TaskBytesRemote int64
	// BroadcastBytes is the measured size of the plan frames, one per
	// worker: ε, join flags, kernel description and trace context. The
	// coordinator maps and replicates itself, so no graph of agreements
	// travels; Metrics.BroadcastBytes models that graph's broadcast.
	BroadcastBytes int64
	// ResultBytes is the measured size of the result frames received.
	ResultBytes int64

	Tasks   int64 // partition tasks executed to completion
	Retries int64 // task re-executions after a worker died or failed
	// SpeculativeLaunched counts duplicate attempts launched for
	// straggling tasks; SpeculativeWins counts those that finished before
	// the original attempt (first result wins, the loser is cancelled).
	SpeculativeLaunched int64
	SpeculativeWins     int64
}

// Metrics reports everything the paper's evaluation charts need.
type Metrics struct {
	SampleTime  time.Duration // orchestrator-filled: input sampling
	BuildTime   time.Duration // orchestrator-filled: grid / agreements / index build
	MapTime     time.Duration // flatMapToPair: assignment of both inputs
	ShuffleTime time.Duration // grouping keyed records into partitions
	JoinTime    time.Duration // per-partition grouping + plane sweeps
	DedupTime   time.Duration // distinct() pass, when enabled

	// BroadcastBytes is orchestrator-filled on every engine: the
	// modelled wire size of Algorithm 5's broadcast of the resolved graph
	// of agreements, its encoded size times the workers (0 for schemes
	// without a graph). ClusterMetrics.BroadcastBytes holds the plan
	// frame bytes a cluster engine measured.
	BroadcastBytes int64

	ReplicatedR   int64 // extra copies of R tuples beyond the native cell
	ReplicatedS   int64
	ShuffledBytes int64 // total keyed bytes moved into reduce partitions
	RemoteBytes   int64 // subset crossing worker boundaries ("remote reads")

	Results    int64  // result pairs after refinement (and dedup, if enabled)
	DedupInput int64  // pairs entering the distinct() pass (0 unless Dedup)
	Checksum   uint64 // order-independent hash of result pair ids

	MaxPartitionCost   int64           // largest per-partition Σ|R_c|·|S_c| (load balance)
	TotalPartitionCost int64           // Σ over all cells of |R_c|·|S_c| (join work metric)
	MapBusy            []time.Duration // map-phase busy time per worker
	WorkerBusy         []time.Duration // reduce-phase busy time per worker

	// Cluster holds the measured counters of a distributed engine run
	// (zero under the local engine).
	Cluster ClusterMetrics
}

// Replicated returns the total number of replicated objects.
func (m *Metrics) Replicated() int64 { return m.ReplicatedR + m.ReplicatedS }

// ConstructionTime returns the time spent before partitions are joined:
// sampling, structure building, mapping and shuffling (the lower part of
// the paper's Figure 13c stacked bars).
func (m *Metrics) ConstructionTime() time.Duration {
	return m.SampleTime + m.BuildTime + m.MapTime + m.ShuffleTime
}

// TotalTime returns the summed pipeline phase times.
func (m *Metrics) TotalTime() time.Duration {
	return m.ConstructionTime() + m.JoinTime + m.DedupTime
}

// maxParallel caps in-flight simulated workers at the pool size (the
// host's cores when pool is 0).
func maxParallel(workers, pool int) int {
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	if workers > pool {
		return pool
	}
	return workers
}

// CheckParallelism returns an error when a join of the given simulated
// workers, reduce partitions and cells would exceed grid.MaxWorkers,
// grid.MaxPartitions or grid.MaxWorkerCells. Prepare runs it before
// anything of that size exists.
func CheckParallelism(workers, partitions, cells int) error {
	switch {
	case workers > grid.MaxWorkers:
		return fmt.Errorf("dpe: %d workers exceed the limit of %d", workers, grid.MaxWorkers)
	case partitions > grid.MaxPartitions:
		return fmt.Errorf("dpe: %d partitions exceed the limit of %d", partitions, grid.MaxPartitions)
	case float64(workers)*(float64(cells)+8*float64(partitions)) > grid.MaxWorkerCells:
		return fmt.Errorf("dpe: %d workers × (%d cells + 8 × %d partitions) exceed the limit of %d per-worker table entries", workers, cells, partitions, grid.MaxWorkerCells)
	}
	return nil
}

// Result is the outcome of one engine run.
type Result struct {
	Metrics
	Pairs []tuple.Pair // populated when Spec.Collect (or Spec.Dedup) is set
}

// Prepared holds the reusable product of the map and shuffle phases: the
// already-replicated inputs as one slab per side per reduce partition,
// plus the construction metrics. One Prepared can be Executed any number
// of times (concurrently, if desired) without re-mapping or re-shuffling
// — the substrate of prepared-plan serving, where plan construction is
// paid once and amortised over many probes.
type Prepared struct {
	spec         Spec
	workers      int
	partR, partS []colpipe.Slab
	build        Metrics // map + shuffle phase metrics
}

// Prepare runs the map and shuffle phases of the pipeline and returns the
// partitioned datasets without joining them. The map phase runs the
// assignment once per input row and keeps a log per worker (replica
// ranks and a per-rank histogram, no coordinates); the shuffle lays
// every slab out from the histograms, has the workers scatter their
// replicas from the input tuples straight into the final lane
// positions, and x-sorts each group once — the same slabs whatever
// PoolSize is. It returns an error on invalid configuration, for an
// input point with a NaN or infinite coordinate (*tuple.NonFiniteError)
// or when a partition side outgrows the slabs' 32-bit offsets.
func Prepare(spec Spec) (*Prepared, error) {
	if spec.Eps <= 0 {
		return nil, fmt.Errorf("dpe: eps must be positive, got %v", spec.Eps)
	}
	if (spec.AssignR == nil && spec.TupleAssignR == nil) ||
		(spec.AssignS == nil && spec.TupleAssignS == nil) {
		return nil, fmt.Errorf("dpe: both assignment functions are required")
	}
	if spec.Part == nil || spec.Part.NumPartitions() <= 0 {
		return nil, fmt.Errorf("dpe: a partitioner with positive partition count is required")
	}
	if spec.PoolSize < 0 {
		return nil, fmt.Errorf("dpe: pool size must not be negative, got %d", spec.PoolSize)
	}
	if spec.Cells <= 0 {
		return nil, fmt.Errorf("dpe: Cells must be positive (the bound on assigned cell ids), got %d", spec.Cells)
	}
	if spec.Kernel != nil {
		spec.CellRank = nil
	}
	if spec.CellRank != nil && len(spec.CellRank) != spec.Cells {
		return nil, fmt.Errorf("dpe: CellRank ranks %d cells, Cells is %d", len(spec.CellRank), spec.Cells)
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nparts := spec.Part.NumPartitions()
	if err := CheckParallelism(workers, nparts, spec.Cells); err != nil {
		return nil, err
	}

	pr := &Prepared{spec: spec, workers: workers}
	res := &pr.build

	// With every cell id in [0, Cells), partition routing is one table
	// lookup per replica instead of a hash per replica. The table is
	// keyed by rank, the id the log and the slabs carry.
	part := make([]int32, spec.Cells)
	for c := range part {
		r := c
		if spec.CellRank != nil {
			r = int(spec.CellRank[c])
		}
		part[r] = int32(spec.Part.PartitionOf(c))
	}

	// ---- Map phase: flatMapToPair on both inputs, one split per worker.
	replSp := spec.Tracer.Start(spec.TraceParent, obs.SpanReplicate)
	start := time.Now()
	logR, busyR, err := mapPhase(&spec, tuple.R, part, nparts, workers)
	if err != nil {
		replSp.End()
		return nil, err
	}
	logS, busyS, err := mapPhase(&spec, tuple.S, part, nparts, workers)
	if err != nil {
		replSp.End()
		return nil, err
	}
	res.MapTime = time.Since(start)
	res.MapBusy = make([]time.Duration, workers)
	recsR, recsS := int64(0), int64(0)
	for w := 0; w < workers; w++ {
		res.MapBusy[w] = busyR[w] + busyS[w]
		recsR += int64(logR[w].Replicas())
		recsS += int64(logS[w].Replicas())
	}
	replR, replS := recsR-int64(len(spec.R)), recsS-int64(len(spec.S))
	res.ReplicatedR, res.ReplicatedS = replR, replS
	replSp.SetInt("replicated_r", replR).SetInt("replicated_s", replS)
	replSp.End()

	// ---- Shuffle: counting-sort both sides into one slab per partition.
	// A record is a remote read when the partition's owner differs from
	// the worker that produced it; the slab's per-worker byte counters
	// carry that split.
	shufSp := spec.Tracer.Start(spec.TraceParent, obs.SpanShuffle)
	start = time.Now()
	if pr.partR, err = shuffle(&spec, tuple.R, logR, part, nparts); err == nil {
		pr.partS, err = shuffle(&spec, tuple.S, logS, part, nparts)
	}
	if err != nil {
		shufSp.End()
		return nil, err
	}
	var bytesR, bytesS int64
	for p := 0; p < nparts; p++ {
		owner := p % workers
		bytesR += pr.partR[p].Bytes
		bytesS += pr.partS[p].Bytes
		for w := 0; w < workers; w++ {
			if w != owner {
				res.RemoteBytes += pr.partR[p].WorkerBytes[w] + pr.partS[p].WorkerBytes[w]
			}
		}
	}
	res.ShuffledBytes = bytesR + bytesS
	res.ShuffleTime = time.Since(start)
	shufSp.SetInt("shuffled_bytes", res.ShuffledBytes).SetInt("remote_bytes", res.RemoteBytes)
	shufSp.End()
	// Replication bytes per set: the agreement type of a cell pair names
	// the set it replicates across the boundary, so replica count times
	// the set's mean keyed wire size is the replication volume each
	// agreement type put on the shuffle.
	if recsR > 0 {
		replSp.SetInt("repl_bytes_r", replR*(bytesR/recsR))
	}
	if recsS > 0 {
		replSp.SetInt("repl_bytes_s", replS*(bytesS/recsS))
	}
	return pr, nil
}

// side returns one input of the join and its assignment: the point
// Assign lifted to a TupleAssign unless the caller supplied a row
// assignment, which wins.
func (spec *Spec) side(set tuple.Set) ([]tuple.Tuple, TupleAssign) {
	in, pt, rows := spec.R, spec.AssignR, spec.TupleAssignR
	if set == tuple.S {
		in, pt, rows = spec.S, spec.AssignS, spec.TupleAssignS
	}
	if rows != nil {
		return in, rows
	}
	return in, func(row int, set tuple.Set, dst []int) []int {
		return pt(in[row].Pt, set, dst)
	}
}

// eachWorker runs fn(w) for every simulated worker w on at most
// maxParallel(workers, pool) goroutines, which take the workers in
// order, and waits for all.
func eachWorker(workers, pool int, fn func(w int)) {
	var wg sync.WaitGroup
	var next atomic.Int64
	for range maxParallel(workers, pool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := int(next.Add(1)) - 1; w < workers; w = int(next.Add(1)) - 1 {
				fn(w)
			}
		}()
	}
	wg.Wait()
}

// splitOf returns worker w's contiguous split of the input.
func splitOf(in []tuple.Tuple, w, workers int) []tuple.Tuple {
	chunk := (len(in) + workers - 1) / workers
	return in[min(w*chunk, len(in)):min((w+1)*chunk, len(in))]
}

// mapPhase assigns one input over the worker pool: each worker runs the
// assignment once over its split and logs what the shuffle needs to
// place the replicas — ranks, per-rank counts, modelled (and, when the
// plan carries a payload lane, payload) bytes per partition. Nothing is
// copied yet. It returns the per-worker logs and busy times, or a
// *tuple.NonFiniteError for the first row whose point is not finite:
// no assignment is defined for it, so none is run.
func mapPhase(spec *Spec, set tuple.Set, part []int32, nparts, workers int) ([]colpipe.Log, []time.Duration, error) {
	in, assign := spec.side(set)
	logs := make([]colpipe.Log, workers)
	busy := make([]time.Duration, workers)
	errs := make([]error, workers)
	chunk := (len(in) + workers - 1) / workers
	eachWorker(workers, spec.PoolSize, func(w int) {
		t0 := time.Now()
		split := splitOf(in, w, workers)
		lg := colpipe.NewLog(spec.Cells, nparts, len(split), spec.TupleAssignR != nil || spec.TupleAssignS != nil)
		var cells []int
		for i := range split {
			t := &split[i]
			if !t.Pt.Finite() {
				errs[w] = &tuple.NonFiniteError{Set: set, Row: w*chunk + i, ID: t.ID, Pt: t.Pt}
				return
			}
			cells = assign(w*chunk+i, set, cells[:0])
			lg.AddRow(cells, spec.CellRank, part, t.KeyedSize(), len(t.Payload))
		}
		logs[w] = lg
		busy[w] = time.Since(t0)
	})
	// Splits are contiguous, so the lowest worker's error names the
	// input's first bad row.
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return logs, busy, nil
}

// shuffle turns one input's assignment logs into its slabs: layout, then
// the workers scatter their splits in parallel (disjoint write ranges,
// nothing is locked), then the partitions' groups are x-sorted in
// parallel with one sort scratch per goroutine.
func shuffle(spec *Spec, set tuple.Set, logs []colpipe.Log, part []int32, nparts int) ([]colpipe.Slab, error) {
	in, _ := spec.side(set)
	slabs := make([]colpipe.Slab, nparts)
	if err := colpipe.Layout(slabs, logs, part); err != nil {
		return nil, fmt.Errorf("dpe: shuffle of %v: %w", set, err)
	}
	eachWorker(len(logs), spec.PoolSize, func(w int) {
		logs[w].Scatter(slabs, part, splitOf(in, w, len(logs)))
	})
	var next atomic.Int32
	eachWorker(maxParallel(nparts, spec.PoolSize), spec.PoolSize, func(int) {
		var st colpipe.Sorter
		for p := int(next.Add(1)) - 1; p < nparts; p = int(next.Add(1)) - 1 {
			st.SortGroups(&slabs[p])
		}
	})
	return slabs, nil
}

// Eps returns the distance threshold the plan was prepared for — the
// upper bound on the ε any Execute may use.
func (pr *Prepared) Eps() float64 { return pr.spec.Eps }

// FootprintBytes returns the wire size of the partition-bucketed tuples
// the plan holds — the quantity a plan cache should account for.
func (pr *Prepared) FootprintBytes() int64 { return pr.build.ShuffledBytes }

// Replicated returns the replicated objects the plan serves per Execute.
func (pr *Prepared) Replicated() int64 { return pr.build.Replicated() }

// NumPartitions returns the number of reduce partitions of the plan.
func (pr *Prepared) NumPartitions() int { return len(pr.partR) }

// Slabs returns the R and S slabs of one reduce partition. They are
// shared and must not be mutated.
func (pr *Prepared) Slabs(p int) (rs, ss *colpipe.Slab) {
	return &pr.partR[p], &pr.partS[p]
}

// SelfFilter reports whether the plan joins in self-join mode.
func (pr *Prepared) SelfFilter() bool { return pr.spec.SelfFilter }

// BuildMetrics returns a copy of the construction-phase metrics, the
// base every engine's Result starts from.
func (pr *Prepared) BuildMetrics() Metrics { return pr.build }

// WireKernel returns the wire description of the plan's join kernel.
func (pr *Prepared) WireKernel() KernelDesc {
	if pr.spec.Kernel == nil {
		return KernelDesc{Kind: KernelSweep}
	}
	if pr.spec.KernelDesc.Kind != KernelSweep {
		return pr.spec.KernelDesc
	}
	return KernelDesc{Kind: KernelCustom}
}

// ExecOptions are the per-execution knobs of a Prepared join.
type ExecOptions struct {
	// Eps optionally re-sweeps the prepared partitions with a smaller
	// threshold. Replication for ε co-locates every pair within ε' ≤ ε in
	// exactly one common cell, so any ε' in (0, plan ε] stays correct and
	// duplicate-free. Zero means the plan's own ε.
	Eps float64
	// Collect materialises the result pairs.
	Collect bool
	// Tracer records execute-phase spans (per-partition tasks, the
	// supplementary join and dedup passes) under TraceParent. Nil falls
	// back to the spec's tracer; a prepared plan probed by many requests
	// passes a per-request tracer here.
	Tracer      *obs.Tracer
	TraceParent obs.SpanID
}

// Execute runs the reduce phase (and the distinct() pass, when the spec
// asked for one) over the prepared partitions. It is safe to call
// concurrently: the partition buckets are only read.
func (pr *Prepared) Execute(opt ExecOptions) (*Result, error) {
	return pr.ExecuteContext(context.Background(), opt)
}

// ExecuteContext is Execute with cancellation: when ctx expires, the
// engine abandons unstarted partitions and returns ctx's error. The
// engine used is Spec.Engine (the in-process local engine when nil).
func (pr *Prepared) ExecuteContext(ctx context.Context, opt ExecOptions) (*Result, error) {
	eps := opt.Eps
	if eps == 0 {
		eps = pr.spec.Eps
	}
	if eps <= 0 || eps > pr.spec.Eps {
		return nil, fmt.Errorf("dpe: execute eps %v outside (0, %v], the range the plan's replication supports", opt.Eps, pr.spec.Eps)
	}
	collectOut := opt.Collect

	tr, parent := opt.Tracer, opt.TraceParent
	if tr == nil {
		tr, parent = pr.spec.Tracer, pr.spec.TraceParent
	}

	eng := pr.spec.Engine
	if eng == nil {
		eng = LocalEngine{}
	}
	res, err := eng.ExecutePrepared(ctx, pr, ExecOptions{
		Eps:         eps,
		Collect:     collectOut || pr.spec.Dedup,
		Tracer:      tr,
		TraceParent: parent,
	})
	if err != nil {
		return nil, err
	}

	// ---- Optional distinct() pass (the Table 6 non-duplicate-free
	// variant pays this extra shuffle + dedup).
	if pr.spec.Dedup {
		supSp := tr.Start(parent, obs.SpanSupplementary)
		start := time.Now()
		uniq, dm := dedup.Distinct(res.Pairs, pr.workers, pr.NumPartitions())
		res.DedupTime = time.Since(start)
		supSp.SetInt("pairs_in", dm.Input).SetInt("pairs_out", dm.Output)
		supSp.SetInt("shuffled_bytes", dm.ShuffledBytes).SetInt("remote_bytes", dm.RemoteBytes)
		supSp.End()
		res.Pairs = uniq
		res.Results = dm.Output
		res.DedupInput = dm.Input
		res.ShuffledBytes += dm.ShuffledBytes
		res.RemoteBytes += dm.RemoteBytes
		// Recompute the checksum over the deduplicated set.
		dedupSp := tr.Start(parent, obs.SpanDedup)
		var sum uint64
		for _, p := range uniq {
			sum += tuple.PairHash(p.RID, p.SID)
		}
		res.Checksum = sum
		dedupSp.SetInt("pairs", int64(len(uniq)))
		dedupSp.End()
		if !collectOut {
			res.Pairs = nil
		}
	}
	return res, nil
}

// Run executes the full pipeline — Prepare followed by a single Execute —
// preserving the one-shot batch interface.
func Run(spec Spec) (*Result, error) {
	pr, err := Prepare(spec)
	if err != nil {
		return nil, err
	}
	return pr.Execute(ExecOptions{Collect: spec.Collect})
}

// PartitionResult is the outcome of joining one reduce partition.
type PartitionResult struct {
	Results  int64
	Checksum uint64
	Pairs    []tuple.Pair
	Cost     int64 // Σ over the partition's cells of |R_c|·|S_c|
}

// JoinSlabsTraced joins the matching rank groups of a partition's two
// slabs — the reduce task both the local engine and remote cluster
// workers run — through colpipe.JoinSlabsContext, with kernel as the
// per-group join (nil: the in-place sweep). The pairs reach one pooled
// colsweep.Sink, so the self-filter and collect mode behave alike for
// every kernel; with a nil kernel a partition allocates nothing in
// steady state (result collection, when requested, is the only growth).
// ctx is checked once per matched group; when it reports an error,
// JoinSlabsTraced returns it with the groups joined so far. The
// partition's row counts, pair count and cost are attached to sp, which
// is then ended; a nil sp (tracing disabled) adds zero work and zero
// allocations, which keeps the traced path on by default.
func JoinSlabsTraced(ctx context.Context, rs, ss *colpipe.Slab, eps float64, kernel Kernel, collect, selfFilter bool, sp *obs.Span) (PartitionResult, error) {
	bufs := colsweep.Get()
	defer colsweep.Put(bufs)
	sink := bufs.Sink(collect, selfFilter)
	cost, err := colpipe.JoinSlabsContext(ctx, rs, ss, eps, kernel, sink)
	sp.SetInt("tuples_r", int64(rs.Rows()))
	sp.SetInt("tuples_s", int64(ss.Rows()))
	sp.SetInt("pairs", sink.N)
	sp.SetInt("cost", cost)
	sp.End()
	return PartitionResult{Results: sink.N, Checksum: sink.Checksum, Pairs: sink.Pairs, Cost: cost}, err
}
