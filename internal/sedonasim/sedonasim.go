// Package sedonasim reproduces the execution shape of Apache Sedona's
// distance join, the third baseline of the paper's evaluation:
//
//  1. Partitioning: a point quadtree is built on the driver from a sample
//     of the input with the fewest objects; its leaves are the join
//     partitions (dense areas get fine leaves, sparse areas coarse ones).
//  2. Assignment: the sampled (smaller) input is the replicated one —
//     each of its points goes to every leaf within ε of it; the larger
//     input is assigned to its containing leaf only.
//  3. Local join: per partition an STR R-tree is built on the larger
//     input and probed with ε-circles from the smaller one.
//
// Because the indexed side is uniquely assigned, every result pair is
// found exactly once — no deduplication step is needed, matching Sedona's
// behaviour for distance joins. The characteristic trade-off the paper
// observes emerges naturally: quadtree leaves are large, so replication
// and shuffle stay low while per-partition join cost balloons.
package sedonasim

import (
	"fmt"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/quadtree"
	"spatialjoin/internal/rtree"
	"spatialjoin/internal/sample"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/tuple"
)

// Config parameterises one Sedona-style join execution.
type Config struct {
	Eps            float64    // join distance threshold (required, > 0)
	Workers        int        // simulated nodes; default GOMAXPROCS
	Partitions     int        // target quadtree leaf count; default 8 × workers
	SampleFraction float64    // partitioner sample; default 0.03
	Seed           int64      // sampling seed
	Fanout         int        // local R-tree fanout; default rtree.DefaultFanout
	Collect        bool       // materialise result pairs
	Bounds         *geom.Rect // data-space MBR; computed from the inputs when nil
	// NetBandwidth is the simulated per-link bandwidth in bytes/s (0: off).
	NetBandwidth float64
	// SelfFilter enables self-join mode: keep only pairs with r.ID < s.ID.
	SelfFilter bool
}

// Result is the outcome of a Sedona-style join.
type Result struct {
	dpe.Metrics
	Pairs       []tuple.Pair
	Partitioner *quadtree.Partitioner
}

// Join executes the ε-distance join with quadtree partitioning and local
// R-tree indexes.
func Join(rs, ss []tuple.Tuple, cfg Config) (*Result, error) {
	if cfg.Eps <= 0 {
		return nil, fmt.Errorf("sedonasim: Eps must be positive, got %v", cfg.Eps)
	}
	if cfg.SampleFraction == 0 {
		cfg.SampleFraction = sample.DefaultFraction
	}
	workers, partitions := core.Parallelism(cfg.Workers, cfg.Partitions)
	bounds := core.DataBounds(cfg.Bounds, rs, ss)

	// The set with the fewest objects drives partitioning and is the
	// replicated side; the larger set is indexed.
	smallIsR := len(rs) <= len(ss)
	small := ss
	if smallIsR {
		small = rs
	}

	// Phase 1: sample the smaller input on the driver.
	start := time.Now()
	smp := sample.Reservoir(small, targetSampleSize(len(small), cfg.SampleFraction), cfg.Seed)
	sampleTime := time.Since(start)

	// Phase 2: build the quadtree partitioner. Leaf capacity is sized so
	// roughly Partitions leaves emerge from the sample.
	start = time.Now()
	capacity := len(smp) / partitions
	if capacity < 1 {
		capacity = 1
	}
	qt := quadtree.Build(smp, bounds, capacity, 0)
	buildTime := time.Since(start)

	locate := func(p geom.Point, set tuple.Set, dst []int) []int {
		return append(dst, qt.Locate(p))
	}
	replicateCircle := func(p geom.Point, set tuple.Set, dst []int) []int {
		dst = qt.CircleLeaves(p, cfg.Eps, dst)
		return moveNativeFirst(dst, qt.Locate(p))
	}
	assignR, assignS := locate, replicateCircle
	if smallIsR {
		assignR, assignS = replicateCircle, locate
	}

	out, err := dpe.Run(dpe.Spec{
		R: rs, S: ss, Eps: cfg.Eps,
		AssignR: assignR,
		AssignS: assignS,
		Cells:   qt.NumLeaves(),
		Part:    dpe.HashPartitioner{N: partitions},
		Workers: workers,
		Kernel:  indexProbeKernel(smallIsR, cfg.Fanout),
		Collect: cfg.Collect,

		NetBandwidth: cfg.NetBandwidth,
		SelfFilter:   cfg.SelfFilter,
	})
	if err != nil {
		return nil, err
	}
	out.SampleTime = sampleTime
	out.BuildTime = buildTime
	return &Result{Metrics: out.Metrics, Pairs: out.Pairs, Partitioner: qt}, nil
}

// indexProbeKernel returns the local join kernel: an R-tree is built on
// the indexed (larger) side and probed with the replicated side's points.
func indexProbeKernel(smallIsR bool, fanout int) dpe.Kernel {
	return func(_ int, rs, ss []tuple.Tuple, eps float64, emit sweep.Emit) {
		if smallIsR {
			// S is indexed, R probes.
			tree := rtree.Build(ss, fanout)
			for _, r := range rs {
				tree.Within(r.Pt, eps, func(s tuple.Tuple) { emit(r, s) })
			}
			return
		}
		tree := rtree.Build(rs, fanout)
		for _, s := range ss {
			tree.Within(s.Pt, eps, func(r tuple.Tuple) { emit(r, s) })
		}
	}
}

// moveNativeFirst reorders ids so the native leaf comes first, keeping
// the engine's "first id is the native cell" replication-count contract.
func moveNativeFirst(ids []int, native int) []int {
	for i, id := range ids {
		if id == native {
			ids[0], ids[i] = ids[i], ids[0]
			return ids
		}
	}
	// MINDIST(p, own leaf) is 0 <= eps, so the native leaf is always in
	// the circle set; reaching here would be a quadtree bug.
	panic("sedonasim: native leaf missing from circle leaves")
}

// targetSampleSize converts a fraction into a reservoir size.
func targetSampleSize(n int, fraction float64) int {
	k := int(float64(n) * fraction)
	if k < 1 {
		k = 1
	}
	return k
}
