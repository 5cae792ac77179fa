// Package colsweep is the columnar (structure-of-arrays) plane-sweep
// kernel: the one partition-level ε-join every point engine runs — the
// local engine and cluster workers over colpipe slabs, the disk engine
// over mapped colfile chunks, and the stream engine over its per-cell
// slabs and per-mutation probes.
//
// Inputs are parallel Xs/Ys/IDs lanes (Cols) sorted by x, so the sort
// and the sweep touch contiguous 8-byte lanes only; JoinCell packs
// tuples into them, sorts by an int32 index permutation and picks the
// sweep axis from the spread computed while packing.
//
// The kernel (SweepSorted) walks the x-sorted R rows with two monotone
// cursors bounding the S rows whose x lies within ε, a window widened
// by a few ulps so float rounding of x ± ε never drops a row the exact
// test would accept: the window only filters. Each R row filters
// its window without a branch into a selection vector: every index is
// written, and the write position advances by the outcome of the exact
// closed test dx²+dy² ≤ ε² — the predicate sweep.NestedLoop uses — so
// the half of the candidates that fail it cost no mispredicted branch.
// The selected S ids then reach the Sink in one step per R row: count
// mode adds them to N and sums tuple.PairHash into Checksum in a tight
// loop, collect mode also appends the pairs, batch mode also hands them
// to an EmitBatch callback BatchSize pairs at a time, and self-filter
// mode first keeps only rid < sid. Probe runs the same selection step
// for one point.
//
// The selection vector is a fixed array inside the pooled Buffers; a
// window wider than it is filtered in chunks, so scratch never grows and
// a join performs zero heap allocations in count mode.
//
// A kernel that tests its own candidates — the reference-point filter,
// the Sedona-style index probe, exact object refinement — hands each
// surviving pair to Sink.Add, which records it through the same step, so
// every kernel shares the self-filter and the three modes.
//
// sweep.NestedLoop remains the differential-test oracle: every sink mode
// must produce its pair multiset (identical N and Checksum, and the
// identical sorted pair list when collecting).
package colsweep

import (
	"math"
	"slices"
	"sync"

	"spatialjoin/internal/tuple"
)

// BatchSize is the pair-buffer capacity of a batch-mode Sink: the number
// of pairs accumulated between EmitBatch calls.
const BatchSize = 1024

// selCap is the length of the selection vector. It bounds the scratch a
// Buffers holds (4 KB, beside the lanes it indexes in L1); a wider
// ε-window is filtered in chunks of selCap rows.
const selCap = 1024

// EmitBatch receives one batch of verified result pairs. The slice is
// reused by the emitter after the call returns: implementations must copy
// the pairs out (or fully consume them) before returning and must not
// retain the slice.
type EmitBatch func([]tuple.Pair)

// Sink is where the kernel delivers its matches. Every mode counts the
// pairs in N and sums their tuple.PairHash in Checksum; collect mode
// also appends them to Pairs, batch mode also passes them to an
// EmitBatch. Obtain one from Buffers.Sink or Buffers.Batch, which reset
// it; N and Checksum then accumulate over any number of kernel calls.
type Sink struct {
	N        int64
	Checksum uint64
	Pairs    []tuple.Pair // collect mode: every pair, in kernel order

	mode       sinkMode
	selfFilter bool
	emit       EmitBatch
	buf        []tuple.Pair
	sel        [selCap]int32
}

type sinkMode uint8

const (
	modeCount sinkMode = iota
	modeCollect
	modeBatch
)

// take delivers R row rid's selected S rows: sel indexes sids. It is
// the only place a match is recorded.
func (o *Sink) take(rid int64, sids []int64, sel []int32) {
	if o.selfFilter {
		// Keep rid < sid: drops identity pairs and one orientation of
		// every match, like the scalar self-join path.
		k := 0
		for _, j := range sel {
			sel[k] = j
			k += b2i(rid < sids[j])
		}
		sel = sel[:k]
	}
	var h uint64
	for _, j := range sel {
		h += tuple.PairHash(rid, sids[j])
	}
	o.N += int64(len(sel))
	o.Checksum += h
	switch o.mode {
	case modeCollect:
		for _, j := range sel {
			o.Pairs = append(o.Pairs, tuple.Pair{RID: rid, SID: sids[j]})
		}
	case modeBatch:
		for _, j := range sel {
			o.buf = append(o.buf, tuple.Pair{RID: rid, SID: sids[j]})
			if len(o.buf) == cap(o.buf) {
				o.Flush()
			}
		}
	}
}

// Add records the one pair (rid, sid) — the entry of a kernel that
// tests its candidates itself. It goes through the same step as the
// sweep's matches, so the self-filter and every mode apply unchanged.
func (o *Sink) Add(rid, sid int64) {
	sids, sel := [1]int64{sid}, [1]int32{}
	o.take(rid, sids[:], sel[:])
}

// Flush delivers a batch-mode sink's buffered pairs, if any; other modes
// have nothing buffered.
func (o *Sink) Flush() {
	if len(o.buf) > 0 {
		o.emit(o.buf)
		o.buf = o.buf[:0]
	}
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// set, not a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
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
// and the sink with its selection vector and pair buffer. Obtain one
// with Get, return it with Put; a Buffers must not be shared across
// goroutines.
type Buffers struct {
	r, s Cols
	perm []int32
	tmpF []float64
	tmpI []int64
	sink Sink
}

var pool = sync.Pool{New: func() any { return new(Buffers) }}

// Get returns a Buffers from the pool.
func Get() *Buffers { return pool.Get().(*Buffers) }

// Put returns a Buffers to the pool. The caller must not use it (or any
// Sink obtained from it) afterwards; a collected Pairs slice stays the
// caller's.
func Put(b *Buffers) {
	b.sink.emit = nil
	b.sink.Pairs = nil
	pool.Put(b)
}

// Sink resets b's sink to count mode, or to collect mode when collect
// is set, and returns it. selfFilter keeps only pairs with rid < sid.
func (b *Buffers) Sink(collect, selfFilter bool) *Sink {
	mode := modeCount
	if collect {
		mode = modeCollect
	}
	b.sink.bind(mode, nil, selfFilter)
	return &b.sink
}

// Batch resets b's sink to batch mode, delivering pairs to emit in
// BatchSize chunks, and returns it. One batch may span many kernel
// calls; the caller flushes once at the end.
func (b *Buffers) Batch(emit EmitBatch, selfFilter bool) *Sink {
	if b.sink.buf == nil {
		b.sink.buf = make([]tuple.Pair, 0, BatchSize)
	}
	b.sink.bind(modeBatch, emit, selfFilter)
	return &b.sink
}

func (o *Sink) bind(mode sinkMode, emit EmitBatch, selfFilter bool) {
	o.N, o.Checksum, o.Pairs = 0, 0, nil
	o.mode, o.emit, o.selfFilter = mode, emit, selfFilter
	o.buf = o.buf[:0]
}

// JoinCell computes the ε-distance join of one cell's R and S tuples,
// adding every pair (r, s) with d(r, s) <= eps to out exactly once. The
// tuples are packed into columnar slabs, sorted along the wider axis
// and swept. The caller owns flushing out.
func JoinCell(b *Buffers, rs, ss []tuple.Tuple, eps float64, out *Sink) {
	if len(rs) == 0 || len(ss) == 0 {
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

// SweepSorted joins two x-sorted columnar slabs, adding every pair
// within eps (closed: distance exactly eps matches) to out. It is the
// one point ε-join kernel: JoinCell, colpipe's partition join, the disk
// engine and the stream engine all run it.
func SweepSorted(r, s *Cols, eps float64, out *Sink) {
	rx, ry, rid := r.Xs, r.Ys, r.IDs
	sx, sy, sid := s.Xs, s.Ys, s.IDs
	eps2 := eps * eps
	if len(rx) == 0 {
		return
	}
	// One reach serves every row: the widening grows with |x|, and the
	// largest |x| of the sorted rows is at one end.
	w := Reach(max(math.Abs(rx[0]), math.Abs(rx[len(rx)-1])), eps)
	start, end := 0, 0 // S window [start, end) of the current R row
	for i, x := range rx {
		xlo, xhi := x-w, x+w
		for start < len(sx) && sx[start] < xlo {
			start++
		}
		if start == len(sx) {
			return
		}
		for end < len(sx) && sx[end] <= xhi {
			end++
		}
		y := ry[i]
		for lo := start; lo < end; lo += selCap {
			hi := min(lo+selCap, end)
			if k := selectWithin(out.sel[:], sx[lo:hi], sy[lo:hi], x, y, eps2); k > 0 {
				out.take(rid[i], sid[lo:hi], out.sel[:k])
			}
		}
	}
}

// Reach returns the half-width of a window around a coordinate ±x that
// holds every row within eps of it on that axis: eps widened by
// (|x| + eps)·2⁻⁵⁰. In floats x ± eps can round inward past a row that
// the exact test dx²+dy² ≤ eps² accepts — at eps 2.5, 2.6 − 2.5 rounds
// to 0.10000000000000009, yet 2.6 − 0.1 rounds to 2.5 — and the
// widening, a few ulps of the window's bounds, covers that rounding.
// The window only filters; the exact test alone decides.
func Reach(x, eps float64) float64 {
	return eps + (math.Abs(x)+eps)*0x1p-50
}

// selectWithin writes to sel, in ascending order, the index of every
// point of the lanes xs/ys within squared distance eps2 of (x, y) and
// returns how many it wrote. It has no data-dependent branch: every
// index is stored and the count advances by the test's outcome. The
// loop is unrolled four wide, which keeps the four tests independent
// of the count they feed. len(sel) must be at least len(xs).
func selectWithin(sel []int32, xs, ys []float64, x, y, eps2 float64) int {
	ys = ys[:len(xs)]
	sel = sel[:len(xs)]
	k, j := 0, 0
	for ; j+4 <= len(xs); j += 4 {
		dx0, dy0 := x-xs[j], y-ys[j]
		dx1, dy1 := x-xs[j+1], y-ys[j+1]
		dx2, dy2 := x-xs[j+2], y-ys[j+2]
		dx3, dy3 := x-xs[j+3], y-ys[j+3]
		in0 := b2i(dx0*dx0+dy0*dy0 <= eps2)
		in1 := b2i(dx1*dx1+dy1*dy1 <= eps2)
		in2 := b2i(dx2*dx2+dy2*dy2 <= eps2)
		in3 := b2i(dx3*dx3+dy3*dy3 <= eps2)
		sel[k] = int32(j)
		k += in0
		sel[k] = int32(j + 1)
		k += in1
		sel[k] = int32(j + 2)
		k += in2
		sel[k] = int32(j + 3)
		k += in3
	}
	for ; j < len(xs); j++ {
		dx, dy := x-xs[j], y-ys[j]
		sel[k] = int32(j)
		k += b2i(dx*dx+dy*dy <= eps2)
	}
	return k
}

// Probe returns the index of every point of the x-sorted slab c within
// eps of (px, py) (closed predicate), ascending, in O(log n + ε-window)
// — the streaming engine's probe of one arriving point against a
// maintained slab. The indices are written over sel's backing array,
// which is grown when the window is wider; pass the previous result
// back in to reuse it.
func Probe(c *Cols, px, py, eps float64, sel []int32) []int32 {
	n := len(c.Xs)
	w := Reach(px, eps)
	xlo, xhi := px-w, px+w
	// Binary search for the first x >= xlo.
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.Xs[mid] < xlo {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	end := lo
	for end < n && c.Xs[end] <= xhi {
		end++
	}
	sel = slices.Grow(sel[:0], end-lo)[:end-lo]
	k := selectWithin(sel, c.Xs[lo:end], c.Ys[lo:end], px, py, eps*eps)
	sel = sel[:k]
	for i := range sel {
		sel[i] += int32(lo)
	}
	return sel
}
