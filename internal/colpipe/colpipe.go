// Package colpipe makes the columnar representation the pipeline's
// native format, not just the kernel's: the map (replicate) phase
// appends points to per-worker, per-partition columnar segments, the
// shuffle counting-sorts those segments into per-partition slabs grouped
// by cell rank with each group x-sorted once at build time, and the
// partition join runs the colsweep kernel directly over group subranges
// of the slab lanes — no []tuple.Tuple materialisation, no per-execute
// hash grouping, no re-sorting.
//
// Layout. A Seg is append-only: one int32 rank lane plus the x/y/id
// lanes, written by a single map worker. A Slab is the shuffle's
// product: the distinct ranks of the partition in ascending order, a
// Starts offset array (group k occupies [Starts[k], Starts[k+1])), and
// the concatenated lanes with every group sorted by x. Halo replicas
// are ordinary rows of the groups they were assigned to — after the
// counting sort a replica is an index range member like any native
// point, not a copied tuple.
//
// Payloads. Joins whose kernel reads more than the point (object
// geometry, size-model padding) carry an optional payload lane: one
// []byte header per row, aliasing the input tuple's payload, permuted
// with its row by the counting sort. Point joins never touch it — the
// lane stays nil and costs nothing.
//
// Ranks. Groups are keyed by cell rank rather than raw cell id so the
// caller can pick a locality-preserving traversal order: MortonRanks
// and HilbertRanks map a grid's cells onto a Z-order or Hilbert curve,
// making adjacent groups in the slab spatially adjacent in the plane —
// consecutive sweeps touch nearby coordinate ranges, which keeps the
// ε-window scans cache-warm. Any bijection cell → [0, NumRanks) is
// valid; nil means identity (row-major cell order).
package colpipe

import (
	"slices"

	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/tuple"
)

// insertionSortMax is the group size below which the three-lane
// insertion sort beats the permutation sort.
const insertionSortMax = 24

// nestedLoopCost mirrors dpe's partition join: below this |R|·|S| the
// quadratic scan over the group lanes beats the sweep's window logic.
const nestedLoopCost = 64

// Seg is one map worker's append-only columnar output for one reduce
// partition: a rank lane parallel to the coordinate and id lanes, plus
// the modelled wire bytes of the appended records (the shuffle's byte
// accounting survives the loss of the tuple structs).
type Seg struct {
	Ranks  []int32
	Xs, Ys []float64
	IDs    []int64
	Bytes  int64

	// Payloads is the optional payload lane: nil for point joins,
	// otherwise parallel to the other lanes (see AppendPayload).
	Payloads [][]byte
}

// Append adds one record to the segment. wireBytes is the record's
// modelled keyed wire size.
func (s *Seg) Append(rank int32, x, y float64, id int64, wireBytes int) {
	s.Ranks = append(s.Ranks, rank)
	s.Xs = append(s.Xs, x)
	s.Ys = append(s.Ys, y)
	s.IDs = append(s.IDs, id)
	s.Bytes += int64(wireBytes)
}

// AppendPayload is Append for records that may carry a payload. The
// lane materialises on the first non-nil payload (earlier rows are
// back-filled with nil), so a segment that never sees one stays a pure
// point segment.
func (s *Seg) AppendPayload(rank int32, x, y float64, id int64, wireBytes int, payload []byte) {
	s.Append(rank, x, y, id, wireBytes)
	if payload != nil || s.Payloads != nil {
		for len(s.Payloads) < len(s.IDs)-1 {
			s.Payloads = append(s.Payloads, nil)
		}
		s.Payloads = append(s.Payloads, payload)
	}
}

// Len returns the number of records in the segment.
func (s *Seg) Len() int { return len(s.Ranks) }

// Grow reserves capacity for at least n more records, so a map worker
// that can estimate its per-partition row count skips most of the
// append-doubling copies.
func (s *Seg) Grow(n int) {
	s.Ranks = slices.Grow(s.Ranks, n)
	s.Xs = slices.Grow(s.Xs, n)
	s.Ys = slices.Grow(s.Ys, n)
	s.IDs = slices.Grow(s.IDs, n)
}

// Slab is one reduce partition's kernel-ready columnar input: records
// grouped by ascending rank, each group sorted by x. Group k occupies
// index range [Starts[k], Starts[k+1]) of the lanes. WorkerRows and
// WorkerBytes record, per producing map split, the row count and
// modelled wire bytes — the inputs of the local/remote shuffle-read
// split (partition owner vs producing worker). Payloads is nil unless a
// segment carried a payload lane; WorkerPayload then holds the payload
// bytes each split contributed.
type Slab struct {
	Ranks    []int32 // distinct ranks present, ascending
	Starts   []int32 // len(Ranks)+1 group offsets
	Xs, Ys   []float64
	IDs      []int64
	Payloads [][]byte // nil, or one payload per row
	Bytes    int64    // total modelled keyed wire bytes

	WorkerRows    []int32
	WorkerBytes   []int64
	WorkerPayload []int64 // nil without a payload lane
}

// Rows returns the total number of records in the slab.
func (s *Slab) Rows() int { return len(s.IDs) }

// NumGroups returns the number of distinct rank groups.
func (s *Slab) NumGroups() int { return len(s.Ranks) }

// Group returns the lane index range of group k.
func (s *Slab) Group(k int) (lo, hi int) {
	return int(s.Starts[k]), int(s.Starts[k+1])
}

// AppendTuples appends the rows of group k to dst as tuples — the view
// a tuple-level kernel is handed. Payloads alias the slab's lane.
func (s *Slab) AppendTuples(dst []tuple.Tuple, k int) []tuple.Tuple {
	lo, hi := s.Group(k)
	for i := lo; i < hi; i++ {
		t := tuple.Tuple{ID: s.IDs[i], Pt: geom.Point{X: s.Xs[i], Y: s.Ys[i]}}
		if s.Payloads != nil {
			t.Payload = s.Payloads[i]
		}
		dst = append(dst, t)
	}
	return dst
}

// reset truncates the slab for reuse, sizing the per-worker counters.
func (s *Slab) reset(workers int) {
	s.Ranks, s.Starts = s.Ranks[:0], s.Starts[:0]
	s.Xs, s.Ys, s.IDs = s.Xs[:0], s.Ys[:0], s.IDs[:0]
	s.Payloads, s.WorkerPayload = nil, nil
	s.Bytes = 0
	if cap(s.WorkerRows) < workers {
		s.WorkerRows = make([]int32, workers)
		s.WorkerBytes = make([]int64, workers)
	}
	s.WorkerRows = s.WorkerRows[:workers]
	s.WorkerBytes = s.WorkerBytes[:workers]
	for i := range s.WorkerRows {
		s.WorkerRows[i] = 0
		s.WorkerBytes[i] = 0
	}
}

// Builder holds the reusable scratch of the counting sort: a dense
// per-rank counter array (zeroed between builds by walking only the
// ranks that were touched) and the permutation-sort scratch. One
// Builder serves any number of sequential BuildInto calls; it must not
// be shared across goroutines.
type Builder struct {
	counts []int32 // dense, len NumRanks; all-zero between builds
	perm   []int32
	tmpF   []float64
	tmpI   []int64
	tmpP   [][]byte
}

// NewBuilder returns a Builder for slabs whose ranks lie in
// [0, numRanks).
func NewBuilder(numRanks int) *Builder {
	return &Builder{counts: make([]int32, numRanks)}
}

// BuildInto counting-sorts the segments of one reduce partition into
// dst: records are grouped by rank, groups ordered by ascending rank,
// and each group sorted by x. dst's slices are reused across calls, so
// a warm Builder/Slab pair builds with zero allocations in steady
// state. Segment index w is taken to be the producing map split for
// the per-worker byte accounting. The payload lane is built only when
// some segment carries one.
func (b *Builder) BuildInto(dst *Slab, segs []Seg) {
	dst.reset(len(segs))

	// Pass 1: count rows per rank, collecting each rank on first touch.
	total := 0
	for w := range segs {
		seg := &segs[w]
		for _, r := range seg.Ranks {
			if b.counts[r] == 0 {
				dst.Ranks = append(dst.Ranks, r)
			}
			b.counts[r]++
		}
		total += seg.Len()
		dst.WorkerRows[w] = int32(seg.Len())
		dst.WorkerBytes[w] = seg.Bytes
		dst.Bytes += seg.Bytes
		if len(seg.Payloads) > 0 {
			if dst.WorkerPayload == nil {
				dst.WorkerPayload = make([]int64, len(segs))
			}
			for _, p := range seg.Payloads {
				dst.WorkerPayload[w] += int64(len(p))
			}
		}
	}
	slices.Sort(dst.Ranks)

	// Prefix-sum the group offsets; the counter array doubles as the
	// per-rank write cursor during the scatter.
	dst.Starts = slices.Grow(dst.Starts, len(dst.Ranks)+1)
	cum := int32(0)
	for _, r := range dst.Ranks {
		dst.Starts = append(dst.Starts, cum)
		n := b.counts[r]
		b.counts[r] = cum
		cum += n
	}
	dst.Starts = append(dst.Starts, cum)

	// Pass 2: scatter the segment rows into their groups.
	dst.Xs = slices.Grow(dst.Xs, total)[:total]
	dst.Ys = slices.Grow(dst.Ys, total)[:total]
	dst.IDs = slices.Grow(dst.IDs, total)[:total]
	if dst.WorkerPayload != nil {
		dst.Payloads = make([][]byte, total)
	}
	for w := range segs {
		seg := &segs[w]
		for i, r := range seg.Ranks {
			pos := b.counts[r]
			b.counts[r]++
			dst.Xs[pos] = seg.Xs[i]
			dst.Ys[pos] = seg.Ys[i]
			dst.IDs[pos] = seg.IDs[i]
			if i < len(seg.Payloads) {
				dst.Payloads[pos] = seg.Payloads[i]
			}
		}
	}

	// Restore the all-zero counter invariant by walking only the ranks
	// this build touched.
	for _, r := range dst.Ranks {
		b.counts[r] = 0
	}

	// Sort each group by x, once — every later Execute sweeps the
	// subranges as-is.
	for k := 0; k < len(dst.Ranks); k++ {
		lo, hi := int(dst.Starts[k]), int(dst.Starts[k+1])
		b.sortRange(dst, lo, hi)
	}
}

// sortRange sorts the slab rows [lo, hi) by ascending x.
func (b *Builder) sortRange(dst *Slab, lo, hi int) {
	n := hi - lo
	if n < 2 {
		return
	}
	xs, ys, ids := dst.Xs, dst.Ys, dst.IDs
	// Payload slabs always take the permutation sort, whose gather
	// handles the extra lane; the insertion sort stays three-lane.
	if n <= insertionSortMax && dst.Payloads == nil {
		for i := lo + 1; i < hi; i++ {
			x, y, id := xs[i], ys[i], ids[i]
			j := i
			for j > lo && xs[j-1] > x {
				xs[j], ys[j], ids[j] = xs[j-1], ys[j-1], ids[j-1]
				j--
			}
			xs[j], ys[j], ids[j] = x, y, id
		}
		return
	}
	// Permutation sort with a single gather per lane, like
	// colsweep.Cols.SortByX but over a subrange.
	perm := b.perm[:0]
	perm = slices.Grow(perm, n)
	for i := 0; i < n; i++ {
		perm = append(perm, int32(i))
	}
	sub := xs[lo:hi]
	slices.SortFunc(perm, func(a, c int32) int {
		if sub[a] < sub[c] {
			return -1
		}
		if sub[a] > sub[c] {
			return 1
		}
		return 0
	})
	b.perm = perm
	b.tmpF = append(b.tmpF[:0], xs[lo:hi]...)
	b.tmpI = append(b.tmpI[:0], ids[lo:hi]...)
	for i, p := range perm {
		xs[lo+i] = b.tmpF[p]
		ids[lo+i] = b.tmpI[p]
	}
	b.tmpF = append(b.tmpF[:0], ys[lo:hi]...)
	for i, p := range perm {
		ys[lo+i] = b.tmpF[p]
	}
	if dst.Payloads != nil {
		b.tmpP = append(b.tmpP[:0], dst.Payloads[lo:hi]...)
		for i, p := range perm {
			dst.Payloads[lo+i] = b.tmpP[p]
		}
		clear(b.tmpP)
	}
}

// JoinSlabs joins the matching rank groups of two slabs, adding every
// pair within eps to out and returning the partition cost
// Σ |R_group|·|S_group| over the matched groups. Both slabs' rank
// lists are ascending, so matching is a linear merge; tiny groups take
// the quadratic lane scan, larger ones the x-sorted ε-window sweep
// with its true-hit/candidate split. Zero allocations.
func JoinSlabs(r, s *Slab, eps float64, out *colsweep.Batch) (cost int64) {
	eps2 := eps * eps
	ri, si := 0, 0
	for ri < len(r.Ranks) && si < len(s.Ranks) {
		switch {
		case r.Ranks[ri] < s.Ranks[si]:
			ri++
		case r.Ranks[ri] > s.Ranks[si]:
			si++
		default:
			rlo, rhi := int(r.Starts[ri]), int(r.Starts[ri+1])
			slo, shi := int(s.Starts[si]), int(s.Starts[si+1])
			nr, ns := rhi-rlo, shi-slo
			cost += int64(nr) * int64(ns)
			if nr*ns <= nestedLoopCost {
				for i := rlo; i < rhi; i++ {
					x, y, id := r.Xs[i], r.Ys[i], r.IDs[i]
					for j := slo; j < shi; j++ {
						dx := x - s.Xs[j]
						dy := y - s.Ys[j]
						if dx*dx+dy*dy <= eps2 {
							out.Add(id, s.IDs[j])
						}
					}
				}
			} else {
				rc := colsweep.Cols{Xs: r.Xs[rlo:rhi], Ys: r.Ys[rlo:rhi], IDs: r.IDs[rlo:rhi]}
				sc := colsweep.Cols{Xs: s.Xs[slo:shi], Ys: s.Ys[slo:shi], IDs: s.IDs[slo:shi]}
				colsweep.SweepSorted(&rc, &sc, eps, out)
			}
			ri++
			si++
		}
	}
	return cost
}

// MortonRanks returns the dense rank of every cell of an nx×ny grid
// along the Z-order (Morton) curve: ranks[cell] ∈ [0, nx·ny), with
// rank order following the curve. Cell ids are row-major (cy·nx+cx).
func MortonRanks(nx, ny int) []int32 {
	return curveRanks(nx, ny, func(cx, cy uint32) uint64 {
		return part1by1(cx) | part1by1(cy)<<1
	})
}

// HilbertRanks is MortonRanks along the Hilbert curve, which preserves
// locality strictly better than Z-order (no long diagonal jumps).
func HilbertRanks(nx, ny int) []int32 {
	side := uint32(1)
	for int(side) < max(nx, ny) {
		side <<= 1
	}
	return curveRanks(nx, ny, func(cx, cy uint32) uint64 {
		return hilbertD(side, cx, cy)
	})
}

// curveRanks densifies an arbitrary space-filling-curve key into ranks
// by argsorting the cells along the curve.
func curveRanks(nx, ny int, key func(cx, cy uint32) uint64) []int32 {
	n := nx * ny
	keys := make([]uint64, n)
	order := make([]int32, n)
	for cy := 0; cy < ny; cy++ {
		for cx := 0; cx < nx; cx++ {
			id := cy*nx + cx
			keys[id] = key(uint32(cx), uint32(cy))
			order[id] = int32(id)
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		ka, kb := keys[a], keys[b]
		if ka < kb {
			return -1
		}
		if ka > kb {
			return 1
		}
		return 0
	})
	ranks := make([]int32, n)
	for rank, cell := range order {
		ranks[cell] = int32(rank)
	}
	return ranks
}

// part1by1 spreads the low 32 bits of v to the even bit positions.
func part1by1(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// hilbertD converts (x, y) on a side×side grid (side a power of two)
// to its distance along the Hilbert curve.
func hilbertD(side, x, y uint32) uint64 {
	var d uint64
	for s := side / 2; s > 0; s /= 2 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}
