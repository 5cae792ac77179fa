// Package spatialjoin is a parallel ε-distance spatial join library with
// adaptive replication, reproducing "Parallel Spatial Join Processing with
// Adaptive Replication" (Koutroumanis, Doulkeridis, Vlachou — EDBT 2025).
//
// Given two point sets R and S and a distance threshold ε, Join reports
// every pair (r, s) with d(r, s) ≤ ε. The library partitions space with a
// grid and replicates boundary points so partitions join independently in
// parallel. Its contribution over classic PBSM is adaptive replication:
// every pair of adjacent cells locally agrees on which data set crosses
// their border, minimising replication on skewed data while a graph-based
// marking/locking scheme keeps the result correct and duplicate-free.
//
// Six algorithms share one interface: the adaptive join with the LPiB or
// DIFF agreement policy, three PBSM baselines (UNI(R), UNI(S), ε-grid),
// and a Sedona-style quadtree + R-tree join. All run on an in-process
// data-parallel engine that reports the replication, shuffle-byte and
// timing metrics of the paper's evaluation.
//
// Quickstart:
//
//	r := spatialjoin.GenerateTigerLike(200_000, 1)
//	s := spatialjoin.GenerateGaussian(200_000, 2)
//	rep, err := spatialjoin.Join(r, s, spatialjoin.Options{
//		Eps:       0.5,
//		Algorithm: spatialjoin.AdaptiveLPiB,
//	})
package spatialjoin

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/textio"
	"spatialjoin/internal/tuple"
)

// Point is a location in the plane.
type Point = geom.Point

// Rect is a closed axis-aligned rectangle.
type Rect = geom.Rect

// Tuple is one input record: an identified point with optional payload.
type Tuple = tuple.Tuple

// Pair is one join result, the identifiers of matched (r, s) tuples.
type Pair = tuple.Pair

// Engine is a pluggable execution backend for the partition-level joins:
// nil (the default) runs them on the in-process engine of simulated
// workers, while a cluster coordinator's Engine ships them to remote
// worker processes over TCP.
type Engine = dpe.Engine

// ClusterMetrics are the measured-on-the-wire counters of a distributed
// engine run (all zero under the in-process engine).
type ClusterMetrics = dpe.ClusterMetrics

// Tracer records a span tree for a join — phase spans, per-partition
// task spans with worker attribution, and typed attributes. Create one
// with NewTracer, attach it via Options.Trace (or ExecOptions.Trace for
// prepared-plan probes), then export with WriteChromeTrace, Tree, or
// Skew. A nil tracer disables tracing at zero cost.
type Tracer = obs.Tracer

// SpanID identifies one span within a trace.
type SpanID = obs.SpanID

// SkewReport is the derived skew diagnostics of a traced join.
type SkewReport = obs.SkewReport

// TraceNode is one span of the exported JSON span tree.
type TraceNode = obs.Node

// NewTracer returns a tracer with a fresh trace id.
func NewTracer() *Tracer { return obs.New() }

// Algorithm selects the join strategy.
type Algorithm uint8

const (
	// AdaptiveLPiB is the paper's algorithm with the "least points in
	// boundaries" agreement policy (the default).
	AdaptiveLPiB Algorithm = iota
	// AdaptiveDIFF is the paper's algorithm with the "greatest count
	// difference" agreement policy.
	AdaptiveDIFF
	// PBSMUniR is PBSM replicating the whole R input on a 2ε grid.
	PBSMUniR
	// PBSMUniS is PBSM replicating the whole S input on a 2ε grid.
	PBSMUniS
	// PBSMEpsGrid is PBSM on an ε×ε grid replicating the smaller input.
	PBSMEpsGrid
	// SedonaLike joins with quadtree partitioning and per-partition
	// R-tree indexes, mirroring Apache Sedona's distance join.
	SedonaLike
	// AdaptiveSimpleDedup is the ablation variant: agreement-based
	// replication without the duplicate-free machinery, followed by a
	// parallel distinct() pass.
	AdaptiveSimpleDedup
	// PBSMClone is Patel & DeWitt's clone join: both inputs replicated on
	// a 2ε grid, duplicates avoided with the reference-point technique (a
	// pair is reported only by the cell containing its midpoint).
	PBSMClone
	// AutoPlanned asks for the strategy of least predicted shuffle volume.
	// On the cost model's sampled statistics LPiB's per-border choice never
	// predicts more replication than either universal choice, so it is
	// always AdaptiveLPiB, and Report.Algorithm says so.
	AutoPlanned
)

// String names the algorithm as in the paper's charts.
func (a Algorithm) String() string {
	switch a {
	case AdaptiveLPiB:
		return "LPiB"
	case AdaptiveDIFF:
		return "DIFF"
	case PBSMUniR:
		return "UNI(R)"
	case PBSMUniS:
		return "UNI(S)"
	case PBSMEpsGrid:
		return "eps-grid"
	case SedonaLike:
		return "Sedona"
	case AdaptiveSimpleDedup:
		return "LPiB+dedup"
	case PBSMClone:
		return "clone+refpoint"
	case AutoPlanned:
		return "auto"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// algorithmNames are the names the command line and sjoind accept, by
// algorithm.
var algorithmNames = [...]string{
	AdaptiveLPiB:        "lpib",
	AdaptiveDIFF:        "diff",
	PBSMUniR:            "uni-r",
	PBSMUniS:            "uni-s",
	PBSMEpsGrid:         "eps-grid",
	SedonaLike:          "sedona",
	AdaptiveSimpleDedup: "lpib-dedup",
	PBSMClone:           "clone",
	AutoPlanned:         "auto",
}

// ParseAlgorithm returns the algorithm a name selects, ignoring case; ""
// selects AdaptiveLPiB. An unknown name's error lists the valid ones.
func ParseAlgorithm(name string) (Algorithm, error) {
	if name == "" {
		return AdaptiveLPiB, nil
	}
	for a, n := range algorithmNames {
		if strings.EqualFold(name, n) {
			return Algorithm(a), nil
		}
	}
	return 0, fmt.Errorf("spatialjoin: unknown algorithm %q (one of %s)", name, strings.Join(algorithmNames[:], ", "))
}

// Options configures a join. Only Eps is required.
type Options struct {
	// Eps is the join distance threshold (required, > 0).
	Eps float64
	// Algorithm selects the strategy; AdaptiveLPiB by default.
	Algorithm Algorithm
	// Workers is the simulated cluster size; GOMAXPROCS when 0.
	Workers int
	// Partitions is the number of reduce partitions; 8×workers when 0.
	Partitions int
	// SampleFraction is the sampling rate for statistics and partitioner
	// construction; the paper's 3% when 0.
	SampleFraction float64
	// Seed selects the sample: a tuple is in it by a hash of its id and
	// the seed, so the same tuples in any order give the same plan.
	Seed int64
	// UseLPT enables the LPT cell placement (adaptive algorithms only).
	UseLPT bool
	// GridRes overrides the grid resolution multiplier (cell side =
	// GridRes·ε); the algorithm default when 0. Must be >= 2 for the
	// adaptive algorithms.
	GridRes float64
	// Collect materialises the result pairs in Report.Pairs; otherwise
	// only the count and checksum are returned.
	Collect bool
	// Bounds fixes the data-space MBR; computed from the inputs when nil.
	Bounds *Rect
	// PoolSize caps the OS-level goroutine pool that runs the simulated
	// workers; GOMAXPROCS when 0. Unlike Workers it changes only real
	// parallelism, not the modelled cluster size.
	PoolSize int
	// Engine selects the execution backend for the partition-level joins;
	// nil runs them in-process. SedonaLike does not support remote
	// engines (its R-tree kernel has no wire description).
	Engine Engine
	// Trace, when non-nil, records the join's span tree (phases, tasks,
	// worker attribution) into the tracer. TraceParent optionally parents
	// the spans under an existing span of the same tracer; Join/Prepare
	// create their own root span when it is zero.
	Trace       *Tracer
	TraceParent SpanID
}

// Validate checks the options for values that would cause downstream
// panics or silent misbehaviour, returning a descriptive error.
func (o Options) Validate() error {
	if !(o.Eps > 0) || math.IsInf(o.Eps, 0) {
		return fmt.Errorf("spatialjoin: Options.Eps must be positive and finite, got %v", o.Eps)
	}
	if o.Workers < 0 {
		return fmt.Errorf("spatialjoin: Options.Workers must not be negative, got %d (use 0 for the GOMAXPROCS default)", o.Workers)
	}
	if o.Partitions < 0 {
		return fmt.Errorf("spatialjoin: Options.Partitions must not be negative, got %d (use 0 for the 8×workers default)", o.Partitions)
	}
	if o.SampleFraction < 0 || o.SampleFraction > 1 {
		return fmt.Errorf("spatialjoin: Options.SampleFraction must be in [0, 1], got %v (0 selects the paper's 3%%)", o.SampleFraction)
	}
	if o.GridRes < 0 {
		return fmt.Errorf("spatialjoin: Options.GridRes must not be negative, got %v", o.GridRes)
	}
	if o.PoolSize < 0 {
		return fmt.Errorf("spatialjoin: Options.PoolSize must not be negative, got %d (use 0 for the GOMAXPROCS default)", o.PoolSize)
	}
	if o.Engine != nil && o.Algorithm == SedonaLike {
		return fmt.Errorf("spatialjoin: %v cannot run on a remote engine: its R-tree kernel has no wire description", o.Algorithm)
	}
	switch o.Algorithm {
	case AdaptiveLPiB, AdaptiveDIFF, AdaptiveSimpleDedup, AutoPlanned:
		if o.GridRes > 0 && o.GridRes < 2 {
			return fmt.Errorf("spatialjoin: Options.GridRes %v violates the l ≥ 2ε requirement of adaptive replication (use 0 for the default, or a value ≥ 2)", o.GridRes)
		}
	case PBSMUniR, PBSMUniS, PBSMEpsGrid, PBSMClone, SedonaLike:
		// Any positive resolution is structurally fine for the baselines.
	default:
		return fmt.Errorf("spatialjoin: unknown algorithm %v", o.Algorithm)
	}
	if o.Bounds != nil && (o.Bounds.MaxX <= o.Bounds.MinX || o.Bounds.MaxY <= o.Bounds.MinY) {
		return fmt.Errorf("spatialjoin: Options.Bounds %+v has a non-positive extent", *o.Bounds)
	}
	return nil
}

// Report is the unified outcome of any algorithm.
type Report struct {
	Algorithm Algorithm
	// Results is the number of (r, s) pairs within Eps; Checksum is an
	// order-independent hash of their identifiers.
	Results  int64
	Checksum uint64
	// Pairs holds the materialised results when Options.Collect was set.
	Pairs []Pair
	// Replication and shuffle metrics (the paper's chart quantities).
	ReplicatedR, ReplicatedS int64
	ShuffledBytes            int64
	ShuffleRemoteBytes       int64
	// BroadcastBytes is the modelled wire size of Algorithm 5's
	// broadcast of the resolved graph of agreements to every worker: its
	// encoded size times Workers, on every engine (0 for algorithms
	// without a graph). Cluster.BroadcastBytes holds the plan frame bytes
	// a cluster engine actually sent.
	BroadcastBytes int64
	// Measured wall-clock phase timings. Construction covers sampling,
	// structure building, mapping and shuffling; Join covers the
	// partition-level joins.
	SampleTime, BuildTime, MapTime, ShuffleTime time.Duration
	JoinTime, DedupTime                         time.Duration
	// MaxPartitionCost is the largest per-partition Σ|R_c|·|S_c|, a load
	// balance indicator; CandidatePairs is the total Σ|R_c|·|S_c| across
	// cells, the deterministic join-work metric.
	MaxPartitionCost int64
	CandidatePairs   int64
	// Cluster holds the measured wire counters when the join ran on a
	// distributed Engine (zero otherwise): real shuffle bytes split into
	// worker-local and remote reads, plan frame and result bytes, task
	// retries and speculative executions.
	Cluster ClusterMetrics
}

// Replicated returns the total replicated objects across both inputs.
func (r *Report) Replicated() int64 { return r.ReplicatedR + r.ReplicatedS }

// ConstructionTime returns sampling + building + mapping + shuffling.
func (r *Report) ConstructionTime() time.Duration {
	return r.SampleTime + r.BuildTime + r.MapTime + r.ShuffleTime
}

// TotalTime returns the end-to-end execution time.
func (r *Report) TotalTime() time.Duration {
	return r.ConstructionTime() + r.JoinTime + r.DedupTime
}

// Selectivity returns Results / (|R|·|S|) for the given input sizes, the
// quantity of the paper's Table 4.
func (r *Report) Selectivity(nr, ns int) float64 {
	if nr == 0 || ns == 0 {
		return 0
	}
	return float64(r.Results) / (float64(nr) * float64(ns))
}

// Join computes the ε-distance join R ⋈ε S with the selected algorithm.
// Every algorithm runs as Prepare followed by a single Execute; callers
// that repeat a join should Prepare once themselves.
func Join(rs, ss []Tuple, opt Options) (*Report, error) {
	return JoinContext(context.Background(), rs, ss, opt)
}

// JoinContext is Join with cancellation: when ctx expires, the engine
// abandons unstarted partitions (a cluster engine additionally tells its
// workers to drop queued tasks) and ctx's error is returned. Plan
// construction itself is not interruptible — only the partition-level
// joins observe ctx.
func JoinContext(ctx context.Context, rs, ss []Tuple, opt Options) (*Report, error) {
	return join(ctx, rs, ss, opt, false)
}

// join is the one-shot path of Join and SelfJoin.
func join(ctx context.Context, rs, ss []Tuple, opt Options, selfJoin bool) (*Report, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	root := opt.traceRoot()
	defer root.End()
	p, err := prepare(rs, ss, opt, selfJoin)
	if err != nil {
		return nil, err
	}
	return p.ExecuteContext(ctx, ExecOptions{
		Collect:     opt.Collect,
		Trace:       opt.Trace,
		TraceParent: opt.TraceParent,
	})
}

// traceRoot opens the join's root span when the caller traces without a
// parent span of its own, and parents everything that follows under it.
func (o *Options) traceRoot() *obs.Span {
	if o.Trace == nil || o.TraceParent != 0 {
		return nil
	}
	root := o.Trace.Start(0, obs.SpanJoin)
	root.SetStr("algorithm", o.Algorithm.String())
	o.TraceParent = root.SpanID()
	return root
}

// BruteForce computes the join by comparing all pairs — O(|R|·|S|), the
// correctness oracle for tests and tiny inputs.
func BruteForce(rs, ss []Tuple, eps float64) []Pair {
	var out []Pair
	eps2 := eps * eps
	for _, r := range rs {
		for _, s := range ss {
			if r.Pt.SqDist(s.Pt) <= eps2 {
				out = append(out, Pair{RID: r.ID, SID: s.ID})
			}
		}
	}
	return out
}

// Data set helpers ----------------------------------------------------

// World returns the default 100×100 data space of the bundled generators.
func World() Rect { return datagen.World() }

// GenerateUniform produces n uniform points with sequential ids from 0.
func GenerateUniform(n int, seed int64) []Tuple {
	return datagen.Uniform(datagen.World(), n, seed, 0)
}

// GenerateGaussian produces the paper's synthetic distribution: n points
// over 30 Gaussian clusters with σ in the paper's range.
func GenerateGaussian(n int, seed int64) []Tuple {
	return datagen.GaussianClusters(datagen.World(), n, 30, 0.1, 0.8, seed, 2_000_000_000)
}

// GenerateTigerLike produces a TIGER-Hydrography-like skewed set.
func GenerateTigerLike(n int, seed int64) []Tuple {
	return datagen.TigerLike(datagen.World(), n, seed, 0)
}

// GenerateOSMLike produces an OSM-Parks-like skewed set.
func GenerateOSMLike(n int, seed int64) []Tuple {
	return datagen.OSMLike(datagen.World(), n, seed, 1_000_000_000)
}

// WithPayloads attaches a payload of the given size to every tuple,
// modelling non-spatial attributes that must travel through shuffles.
func WithPayloads(ts []Tuple, bytes int) []Tuple {
	return tuple.WithPayloads(ts, bytes)
}

// FromPoints wraps raw points into tuples with sequential ids from base.
func FromPoints(pts []Point, base int64) []Tuple {
	return tuple.FromPoints(pts, base)
}

// ReadFile loads a data set from a text file ("x y [attributes...]" per
// line), assigning sequential ids from idBase.
func ReadFile(path string, idBase int64) ([]Tuple, error) {
	return textio.ReadFile(path, idBase)
}

// WriteFile saves a data set to a text file.
func WriteFile(path string, ts []Tuple) error {
	return textio.WriteFile(path, ts)
}

// report converts engine metrics into the public Report.
func report(a Algorithm, m dpe.Metrics, pairs []Pair) *Report {
	return &Report{
		Algorithm:          a,
		Results:            m.Results,
		Checksum:           m.Checksum,
		Pairs:              pairs,
		ReplicatedR:        m.ReplicatedR,
		ReplicatedS:        m.ReplicatedS,
		ShuffledBytes:      m.ShuffledBytes,
		ShuffleRemoteBytes: m.RemoteBytes,
		BroadcastBytes:     m.BroadcastBytes,
		SampleTime:         m.SampleTime,
		BuildTime:          m.BuildTime,
		MapTime:            m.MapTime,
		ShuffleTime:        m.ShuffleTime,
		JoinTime:           m.JoinTime,
		DedupTime:          m.DedupTime,
		MaxPartitionCost:   m.MaxPartitionCost,
		CandidatePairs:     m.TotalPartitionCost,
		Cluster:            m.Cluster,
	}
}
