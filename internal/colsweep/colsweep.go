// Package colsweep is the columnar (structure-of-arrays) plane-sweep
// kernel: the hot partition-level ε-join rewritten for cache locality and
// zero steady-state allocation.
//
// The scalar kernel in internal/sweep operates on []tuple.Tuple — an
// array-of-structs whose 40-byte elements (id, two coordinates, a payload
// slice header) drag payload pointers through the cache on every
// comparison — sorts them with reflection-based sort.Slice, and calls a
// dynamic Emit closure once per result pair. This package instead
//
//   - packs each cell's tuples into parallel Xs/Ys/IDs slabs, so the sort
//     and the sweep's ε-window scans touch contiguous 8-byte lanes only;
//   - sorts by an int32 index permutation with slices.SortFunc (pdqsort,
//     no reflection), then gathers the columns once;
//   - picks the sweep axis by the spread computed during packing — a free
//     by-product of the packing pass — and flips axes by swapping slice
//     headers rather than rewriting points;
//   - emits results in batches: pairs accumulate in a reused []tuple.Pair
//     buffer flushed through one EmitBatch call per BatchSize results,
//     replacing one dynamic call per pair with one per batch;
//   - recycles every working buffer through a sync.Pool, so the
//     steady-state per-cell join performs zero heap allocations.
//
// The scalar kernel remains the differential-test oracle: for any input,
// JoinCell must produce exactly the pair multiset of sweep.PlaneSweep
// (asserted via identical sweep.Counter{N, Checksum} in the package's
// property and fuzz tests).
package colsweep

import (
	"slices"
	"sync"

	"spatialjoin/internal/tuple"
)

// BatchSize is the result-buffer capacity of a Batch: the number of pairs
// accumulated between EmitBatch flushes.
const BatchSize = 1024

// nestedLoopThreshold mirrors internal/sweep: below this per-side size the
// quadratic loop beats packing and sorting.
const nestedLoopThreshold = 8

// EmitBatch receives one batch of verified result pairs. The slice is
// reused by the emitter after the call returns: implementations must copy
// the pairs out (or fully consume them) before returning and must not
// retain the slice.
type EmitBatch func([]tuple.Pair)

// Batch accumulates result pairs and hands them to an EmitBatch sink in
// BatchSize chunks. Obtain one from Buffers.Batch so the pair buffer is
// pooled; call Flush after the last Add to deliver the partial tail batch.
type Batch struct {
	emit       EmitBatch
	buf        []tuple.Pair
	selfFilter bool
}

// Add records one result pair, flushing if the buffer filled up. In
// self-join mode pairs are kept only when rid < sid (dropping identity
// pairs and one orientation of every match, like the scalar path).
func (b *Batch) Add(rid, sid int64) {
	if b.selfFilter && rid >= sid {
		return
	}
	b.buf = append(b.buf, tuple.Pair{RID: rid, SID: sid})
	if len(b.buf) == cap(b.buf) {
		b.Flush()
	}
}

// Flush delivers the buffered pairs, if any, to the sink.
func (b *Batch) Flush() {
	if len(b.buf) > 0 {
		b.emit(b.buf)
		b.buf = b.buf[:0]
	}
}

// Cols is a columnar slab of points: parallel coordinate and id lanes.
// Invariant: len(Xs) == len(Ys) == len(IDs).
type Cols struct {
	Xs, Ys []float64
	IDs    []int64
}

// Len returns the number of points in the slab.
func (c *Cols) Len() int { return len(c.IDs) }

// Reset truncates the slab, keeping capacity for reuse.
func (c *Cols) Reset() {
	c.Xs, c.Ys, c.IDs = c.Xs[:0], c.Ys[:0], c.IDs[:0]
}

// Append adds one point to the slab.
func (c *Cols) Append(x, y float64, id int64) {
	c.Xs = append(c.Xs, x)
	c.Ys = append(c.Ys, y)
	c.IDs = append(c.IDs, id)
}

// Pack replaces c's contents with ts (payloads are dropped: the kernel
// joins on coordinates and reports ids). It returns the spread (max-min)
// of each axis, computed during the same pass — the input of the
// sweep-axis choice, for free.
func (c *Cols) Pack(ts []tuple.Tuple) (spreadX, spreadY float64) {
	c.Reset()
	if len(ts) == 0 {
		return 0, 0
	}
	c.Xs = slices.Grow(c.Xs, len(ts))
	c.Ys = slices.Grow(c.Ys, len(ts))
	c.IDs = slices.Grow(c.IDs, len(ts))
	minX, maxX := ts[0].Pt.X, ts[0].Pt.X
	minY, maxY := ts[0].Pt.Y, ts[0].Pt.Y
	for i := range ts {
		x, y := ts[i].Pt.X, ts[i].Pt.Y
		c.Xs = append(c.Xs, x)
		c.Ys = append(c.Ys, y)
		c.IDs = append(c.IDs, ts[i].ID)
		if x < minX {
			minX = x
		} else if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		} else if y > maxY {
			maxY = y
		}
	}
	return maxX - minX, maxY - minY
}

// SwapAxes flips the slab's sweep axis by exchanging the coordinate slice
// headers — no points move. Emitted ids are axis-independent, so sweeping
// swapped slabs yields the identical pair set.
func (c *Cols) SwapAxes() { c.Xs, c.Ys = c.Ys, c.Xs }

// SortByX sorts the slab by ascending Xs via an index permutation: the
// int32 permutation is sorted with slices.SortFunc (no reflection), then
// each lane is gathered once through scratch space from b.
func (c *Cols) SortByX(b *Buffers) {
	n := c.Len()
	if n < 2 {
		return
	}
	perm := b.perm[:0]
	perm = slices.Grow(perm, n)
	for i := 0; i < n; i++ {
		perm = append(perm, int32(i))
	}
	xs := c.Xs
	slices.SortFunc(perm, func(a, b int32) int {
		if xs[a] < xs[b] {
			return -1
		}
		if xs[a] > xs[b] {
			return 1
		}
		return 0
	})
	b.perm = perm
	b.tmpF = append(b.tmpF[:0], c.Xs...)
	for i, p := range perm {
		c.Xs[i] = b.tmpF[p]
	}
	b.tmpF = append(b.tmpF[:0], c.Ys...)
	for i, p := range perm {
		c.Ys[i] = b.tmpF[p]
	}
	b.tmpI = append(b.tmpI[:0], c.IDs...)
	for i, p := range perm {
		c.IDs[i] = b.tmpI[p]
	}
}

// Buffers is the pooled working set of the columnar kernel: the packed
// and sorted slabs of both inputs, the permutation and gather scratch,
// and the result batch buffer. Obtain one with Get, return it with Put;
// a Buffers must not be shared across goroutines.
type Buffers struct {
	r, s Cols
	perm []int32
	tmpF []float64
	tmpI []int64
	bat  Batch
}

var pool = sync.Pool{New: func() any { return new(Buffers) }}

// Get returns a Buffers from the pool.
func Get() *Buffers { return pool.Get().(*Buffers) }

// Put returns a Buffers to the pool. The caller must not use it (or any
// Batch obtained from it) afterwards.
func Put(b *Buffers) {
	b.bat.emit = nil
	pool.Put(b)
}

// Batch binds b's pooled pair buffer to an emission sink and returns the
// ready-to-use Batch. One Batch may span many JoinCell calls (batching
// across cells); the caller flushes once at the end.
func (b *Buffers) Batch(emit EmitBatch, selfFilter bool) *Batch {
	if b.bat.buf == nil {
		b.bat.buf = make([]tuple.Pair, 0, BatchSize)
	}
	b.bat.emit = emit
	b.bat.selfFilter = selfFilter
	return &b.bat
}

// JoinCell computes the ε-distance join of one cell's R and S tuples with
// the columnar kernel, adding every pair (r, s) with d(r, s) <= eps to
// out exactly once. Tiny cells take the quadratic loop directly; larger
// cells are packed into columnar slabs, sorted along the wider axis, and
// swept. The caller owns flushing out.
func JoinCell(b *Buffers, rs, ss []tuple.Tuple, eps float64, out *Batch) {
	if len(rs) == 0 || len(ss) == 0 {
		return
	}
	if len(rs)*len(ss) <= nestedLoopThreshold*nestedLoopThreshold {
		eps2 := eps * eps
		for i := range rs {
			for j := range ss {
				if rs[i].Pt.SqDist(ss[j].Pt) <= eps2 {
					out.Add(rs[i].ID, ss[j].ID)
				}
			}
		}
		return
	}
	rsx, rsy := b.r.Pack(rs)
	ssx, ssy := b.s.Pack(ss)
	// Sweep along the wider combined extent: fewer points per ε-window.
	if max(rsy, ssy) > max(rsx, ssx) {
		b.r.SwapAxes()
		b.s.SwapAxes()
	}
	b.r.SortByX(b)
	b.s.SortByX(b)
	SweepSorted(&b.r, &b.s, eps, out)
}

// SweepSorted joins two x-sorted columnar slabs, adding every pair within
// eps to out. It is the inner kernel of JoinCell and the batch entry
// point for callers that maintain sorted slabs themselves (the streaming
// engine's per-cell slabs and the columnar pipeline's partition slabs).
//
// The ε-window scan separates true hits from candidates: a pair whose
// coordinate deltas satisfy |dx|+|dy| <= ε is within ε in L2 as well
// (the L1 ball is inscribed in the L2 ball), so it is emitted without
// the squared-distance refinement; only the candidates in the annulus
// between the two balls pay the multiplications.
func SweepSorted(r, s *Cols, eps float64, out *Batch) {
	rx, ry, rid := r.Xs, r.Ys, r.IDs
	sx, sy, sid := s.Xs, s.Ys, s.IDs
	if len(rx) == 0 || len(sx) == 0 {
		return
	}
	eps2 := eps * eps
	start := 0
	for i := range rx {
		x := rx[i]
		lo := x - eps
		for start < len(sx) && sx[start] < lo {
			start++
		}
		if start == len(sx) {
			return
		}
		y := ry[i]
		hi := x + eps
		for j := start; j < len(sx) && sx[j] <= hi; j++ {
			dy := y - sy[j]
			if dy < 0 {
				dy = -dy
			}
			if dy > eps {
				continue
			}
			dx := x - sx[j]
			if dx < 0 {
				dx = -dx
			}
			// True hit: inside the inscribed L1 ball, no refinement needed.
			if dx+dy <= eps {
				out.Add(rid[i], sid[j])
				continue
			}
			// Candidate: refine with the exact squared distance.
			if dx*dx+dy*dy <= eps2 {
				out.Add(rid[i], sid[j])
			}
		}
	}
}

// Probe reports the index of every point of the x-sorted slab c within
// eps of (px, py) — used by the streaming engine to probe one arriving
// point against a maintained slab in O(log n + ε-window). Matches at distance exactly eps are
// reported (closed predicate).
func Probe(c *Cols, px, py, eps float64, emit func(i int)) {
	n := len(c.Xs)
	if n == 0 {
		return
	}
	// Binary search for the first x >= px-eps.
	lo, hi := 0, n
	bound := px - eps
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.Xs[mid] < bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	eps2 := eps * eps
	end := px + eps
	for i := lo; i < n && c.Xs[i] <= end; i++ {
		dy := py - c.Ys[i]
		if dy < 0 {
			dy = -dy
		}
		if dy > eps {
			continue
		}
		dx := px - c.Xs[i]
		if dx < 0 {
			dx = -dx
		}
		// Same true-hit/candidate split as SweepSorted.
		if dx+dy <= eps || dx*dx+dy*dy <= eps2 {
			emit(i)
		}
	}
}
