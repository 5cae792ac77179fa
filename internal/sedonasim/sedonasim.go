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
	"time"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/core"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/quadtree"
	"spatialjoin/internal/rtree"
	"spatialjoin/internal/sample"
	"spatialjoin/internal/tuple"
)

// Scheme is the Sedona-style join as a scheme of the core orchestrator:
// quadtree leaves are the cells, the smaller input is replicated to every
// leaf within ε, and each cell is joined by IndexProbeKernel. Circle
// replication at the plan's ε covers every smaller ε′, so the plan is
// reusable like any other; the kernel has no wire description, so it
// runs on the local engine only.
func Scheme(in core.Input, spec *dpe.Spec, p *core.Plan) error {
	// The set with the fewest objects drives partitioning and is the
	// replicated side; the larger set is indexed.
	smallIsR := len(in.R) <= len(in.S)
	small := in.S
	if smallIsR {
		small = in.R
	}

	// Phase 1: sample the smaller input on the driver.
	sampleSp := in.Tracer.Start(in.Span.SpanID(), obs.SpanSample)
	start := time.Now()
	smp := sample.Reservoir(small, targetSampleSize(len(small), in.SampleFraction), in.Seed)
	p.SampleTime = time.Since(start)
	sampleSp.SetInt("sample", int64(len(smp)))
	sampleSp.End()

	// Phase 2: build the quadtree partitioner.
	partSp := in.Tracer.Start(in.Span.SpanID(), obs.SpanPartition)
	start = time.Now()
	qt := buildPartitioner(smp, in.Bounds, in.Partitions)
	p.BuildTime = time.Since(start)
	partSp.SetInt("partitions", int64(in.Partitions)).SetInt("leaves", int64(qt.NumLeaves()))
	partSp.End()

	// The closures outlive the build: keep them off the whole Input.
	eps, rs, ss := in.Eps, in.R, in.S
	locate := func(ts []tuple.Tuple) dpe.Assign {
		return func(row int, _ tuple.Set, dst []int) []int {
			return append(dst, qt.Locate(ts[row].Pt))
		}
	}
	replicateCircle := func(ts []tuple.Tuple) dpe.Assign {
		return func(row int, _ tuple.Set, dst []int) []int {
			pt := ts[row].Pt
			dst = qt.CircleLeaves(pt, eps, dst)
			return moveNativeFirst(dst, qt.Locate(pt))
		}
	}
	spec.AssignR, spec.AssignS = locate(rs), replicateCircle(ss)
	if smallIsR {
		spec.AssignR, spec.AssignS = replicateCircle(rs), locate(ss)
	}
	spec.Cells = qt.NumLeaves()
	spec.Kernel = IndexProbeKernel(smallIsR)
	return nil
}

// buildPartitioner builds the quadtree on the sample, with the leaf
// capacity sized so roughly partitions leaves emerge.
func buildPartitioner(smp []tuple.Tuple, bounds geom.Rect, partitions int) *quadtree.Partitioner {
	capacity := len(smp) / partitions
	if capacity < 1 {
		capacity = 1
	}
	return quadtree.Build(smp, bounds, capacity, 0)
}

// IndexProbeKernel returns the local join kernel: the indexed side's
// rows are STR-packed as point boxes into an R-tree, each row of the
// other side probes it with its ε-square, widened on each axis by
// colsweep.Reach so that rounding cannot drop a row at distance exactly
// ε, and a candidate is a pair when it passes the closed test
// dx²+dy² ≤ ε². indexS indexes S (R probes);
// otherwise R is indexed and S probes.
func IndexProbeKernel(indexS bool) dpe.Kernel {
	return func(_ int, r, s *colpipe.Group, eps float64, out *colsweep.Sink) {
		idx, probe := r, s
		if indexS {
			idx, probe = s, r
		}
		boxes := make([]rtree.BoxEntry, idx.Len())
		for i := range boxes {
			x, y := idx.Xs[i], idx.Ys[i]
			boxes[i] = rtree.BoxEntry{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}, Ref: int32(i)}
		}
		tree := rtree.BuildBoxes(boxes, rtree.DefaultFanout)
		eps2 := eps * eps
		for i, id := range probe.IDs {
			x, y := probe.Xs[i], probe.Ys[i]
			wx, wy := colsweep.Reach(x, eps), colsweep.Reach(y, eps)
			tree.SearchIntersects(geom.Rect{MinX: x - wx, MinY: y - wy, MaxX: x + wx, MaxY: y + wy}, func(e rtree.BoxEntry) {
				dx, dy := x-idx.Xs[e.Ref], y-idx.Ys[e.Ref]
				if dx*dx+dy*dy > eps2 {
					return
				}
				if indexS {
					out.Add(id, idx.IDs[e.Ref])
				} else {
					out.Add(idx.IDs[e.Ref], id)
				}
			})
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
