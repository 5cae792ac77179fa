// Package colpipe makes the columnar representation the pipeline's
// native format, not just the kernel's: the shuffle is one parallel
// counting sort — map workers log the rank of every replica and a
// per-rank histogram (Log), one walk over the ranks turns the histograms
// into every slab's group directory and every worker's write cursors
// (Layout), the workers replay their logs and write each replica from
// its input tuple straight to its final lane position (Log.Scatter), and
// every group is x-sorted once (Sorter: insertion sort for small groups,
// a stable LSD radix sort on a quantised x key for the rest) — and the
// partition join runs the colsweep kernel directly over group subranges
// of the slab lanes: no []tuple.Tuple materialisation, no per-execute
// hash grouping, no re-sorting.
//
// Layout. A Slab is the shuffle's product: the distinct ranks of the
// partition in ascending order, a Starts offset array (group k occupies
// [Starts[k], Starts[k+1])), and the concatenated lanes with every group
// sorted by x. Halo replicas are ordinary rows of the groups they were
// assigned to — a replica is an index range member like any native
// point, not a copied tuple.
//
// Payloads. Joins whose assignment reads more than the point (the
// two-layer join's object geometry) carry an optional payload lane: one
// []byte header per row, aliasing the input tuple's payload, moved with
// its row by the scatter and the group sort. Every other join leaves it
// nil at no cost.
//
// Kernels. A partition join either sweeps each matched group with
// colsweep.SweepSorted or hands it to a kernel as two Groups — zero-copy
// views of the lanes — with one colsweep.Sink receiving every pair.
//
// Ranks. Groups are keyed by cell rank rather than raw cell id so the
// caller can pick a locality-preserving traversal order: HilbertRanks
// maps a grid's cells onto a Hilbert curve, making adjacent groups in
// the slab spatially adjacent in the plane — consecutive sweeps touch
// nearby coordinate ranges, which keeps the ε-window scans cache-warm. Any bijection cell → [0, NumRanks) is
// valid; nil means identity (row-major cell order).
//
// Seg and Builder.BuildInto are the single-slab entry the benchmark's
// layer pass still calls, on the same Layout and Sorter; nothing in the
// engine uses them.
package colpipe

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/tuple"
)

// insertionSortMax is the largest group the insertion sort takes; the
// radix sort's two 256-bucket passes do not pay off below it.
const insertionSortMax = 24

// Slab is one reduce partition's kernel-ready columnar input: records
// grouped by ascending rank, each group sorted by x. Group k occupies
// index range [Starts[k], Starts[k+1]) of the lanes. WorkerRows and
// WorkerBytes record, per producing map split, the row count and
// modelled wire bytes — the inputs of the local/remote shuffle-read
// split (partition owner vs producing worker). Payloads is nil unless
// the plan carries payloads and some row of the slab has a non-empty
// one; WorkerPayload then holds the payload bytes each split
// contributed.
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

// Group is the kernel's view of one rank group of a slab: its x-sorted
// lanes and, when the plan carries a payload lane, its payloads — all
// sub-slices of the slab, nothing copied. A kernel must not retain or
// modify them.
type Group struct {
	colsweep.Cols
	Payloads [][]byte // nil without a payload lane
}

// view points g at the rows [lo, hi) of s.
func (g *Group) view(s *Slab, lo, hi int) {
	g.Cols = colsweep.Cols{Xs: s.Xs[lo:hi], Ys: s.Ys[lo:hi], IDs: s.IDs[lo:hi]}
	g.Payloads = nil
	if s.Payloads != nil {
		g.Payloads = s.Payloads[lo:hi]
	}
}

// Log is one map split's record of an assignment pass, the first step
// of the counting sort. It holds 4 bytes per replica and per input row
// plus a dense per-rank count — the coordinates stay in the input
// tuples until Scatter writes them to their final lane positions. A Log
// is written by one goroutine.
type Log struct {
	// ranks holds the rank of every replica in input order, in blocks so
	// that growing never copies; one input row's replicas share a block.
	ranks    [][]int32
	block    int      // capacity of a fresh block
	replicas int      // total length of the blocks
	reps     []uint32 // replicas per input row (an object may cover any number of cells)
	// rows is dense over the ranks: the split's row count per rank and,
	// once Layout has run, its write cursor in that rank's group.
	rows    []int32
	bytes   []int64 // per slab: modelled keyed wire bytes
	payload []int64 // per slab: payload bytes; nil when the plan carries none
}

// logBlock caps a rank block at 64 KB: neither the unused tail of a
// split's last block nor the block bookkeeping shows at that size.
const logBlock = 16 << 10

// NewLog returns the empty log of a split of `rows` input rows, assigned
// over numRanks ranks into `slabs` slabs. payload states whether the
// plan carries tuple payloads into the slabs.
func NewLog(numRanks, slabs, rows int, payload bool) Log {
	l := Log{
		block: min(max(rows, 64), logBlock),
		reps:  make([]uint32, 0, rows),
		rows:  make([]int32, numRanks),
		bytes: make([]int64, slabs),
	}
	if payload {
		l.payload = make([]int64, slabs)
	}
	return l
}

// AddRow logs the next input row as assigned to cells. rank maps cell
// id → rank (nil is the identity), part maps rank → slab; wireBytes is
// the row's modelled keyed wire size and payloadBytes the size of the
// payload it carries.
func (l *Log) AddRow(cells []int, rank, part []int32, wireBytes, payloadBytes int) {
	l.reps = append(l.reps, uint32(len(cells)))
	l.replicas += len(cells)
	last := len(l.ranks) - 1
	if last < 0 || len(l.ranks[last])+len(cells) > cap(l.ranks[last]) {
		l.ranks = append(l.ranks, make([]int32, 0, max(l.block, len(cells))))
		last++
	}
	blk := l.ranks[last]
	for _, c := range cells {
		r := int32(c)
		if rank != nil {
			r = rank[c]
		}
		blk = append(blk, r)
		l.rows[r]++
		p := part[r]
		l.bytes[p] += int64(wireBytes)
		if l.payload != nil {
			l.payload[p] += int64(payloadBytes)
		}
	}
	l.ranks[last] = blk
}

// Replicas returns the number of replicas logged — one slab row each.
func (l *Log) Replicas() int { return l.replicas }

// Layout is the second step of the counting sort: one walk over the
// ranks turns the splits' histograms into every slab's ascending group
// directory (Ranks, Starts), sizes every lane exactly once, fills the
// per-split attribution, and leaves in every log the split's write
// cursor per rank. Inside a group the splits' ranges follow each other
// in split order, so its rows end up in (split, input) order however
// the scatter is scheduled. part maps rank → index into dst, which is
// overwritten; the lanes hold garbage until every log has scattered.
// A slab past 2³¹−1 rows (offsets are 32-bit) is an error, reported
// before anything is allocated.
func Layout(dst []Slab, logs []Log, part []int32) error {
	groups := make([]int32, len(dst))
	rows := make([]int64, len(dst))
	for p := range dst {
		dst[p] = Slab{WorkerRows: make([]int32, len(logs)), WorkerBytes: make([]int64, len(logs))}
	}
	for r, p := range part {
		var n int64
		wr := dst[p].WorkerRows
		for w := range logs {
			c := logs[w].rows[r]
			wr[w] += c
			n += int64(c)
		}
		if n > 0 {
			groups[p]++
			rows[p] += n
		}
	}
	for p, n := range rows {
		if n > math.MaxInt32 {
			return fmt.Errorf("colpipe: partition %d holds %d rows, slab offsets are 32-bit", p, n)
		}
	}

	for p := range dst {
		s, n := &dst[p], int(rows[p])
		s.Ranks = make([]int32, 0, groups[p])
		s.Starts = make([]int32, 0, groups[p]+1)
		s.Xs, s.Ys, s.IDs = lane[float64](n), lane[float64](n), lane[int64](n)
		var payload int64
		for w := range logs {
			s.WorkerBytes[w] = logs[w].bytes[p]
			s.Bytes += logs[w].bytes[p]
			if logs[w].payload != nil {
				payload += logs[w].payload[p]
			}
		}
		if payload > 0 {
			s.Payloads = make([][]byte, n)
			s.WorkerPayload = make([]int64, len(logs))
			for w := range logs {
				s.WorkerPayload[w] = logs[w].payload[p]
			}
		}
	}

	// Prefix sums: groups[p] now runs as slab p's next free offset.
	clear(groups)
	for r, p := range part {
		start := groups[p]
		at := start
		for w := range logs {
			if c := logs[w].rows[r]; c != 0 {
				logs[w].rows[r] = at
				at += c
			}
		}
		if at != start {
			s := &dst[p]
			s.Ranks = append(s.Ranks, int32(r))
			s.Starts = append(s.Starts, start)
			groups[p] = at
		}
	}
	for p := range dst {
		dst[p].Starts = append(dst[p].Starts, groups[p])
	}
	return nil
}

// lane allocates a lane of n rows without clearing it: the scatter
// writes every row.
func lane[T float64 | int64](n int) []T {
	return slices.Grow([]T(nil), n)[:n]
}

// Scatter is the third step: the split replays its log over its input
// rows (the ones it was built from) and writes every replica where its
// cursor points. The logs of one Layout write disjoint ranges, so they
// scatter concurrently without synchronisation.
func (l *Log) Scatter(dst []Slab, part []int32, split []tuple.Tuple) {
	i := 0
	for _, blk := range l.ranks {
		for k := 0; k < len(blk); i++ {
			t := &split[i]
			n := int(l.reps[i])
			for _, r := range blk[k : k+n] {
				s := &dst[part[r]]
				pos := l.rows[r]
				l.rows[r] = pos + 1
				s.Xs[pos], s.Ys[pos], s.IDs[pos] = t.Pt.X, t.Pt.Y, t.ID
				if s.Payloads != nil {
					s.Payloads[pos] = t.Payload
				}
			}
			k += n
		}
	}
}

// Sorter holds the scratch of the group x-sort: two key buffers of the
// slab's largest group, sized once per slab, and a payload buffer for
// slabs that carry a lane. One Sorter serves any number of slabs in
// sequence; it must not be shared across goroutines.
type Sorter struct {
	keys, tmp []uint64
	tmpP      [][]byte
}

// SortGroups sorts every group of the slab by ascending x, once — every
// later Execute sweeps the subranges as-is. The sort is stable, so a
// slab is a function of its rows' (split, input) order alone. Groups of
// up to insertionSortMax rows are insertion-sorted; larger ones take a
// stable LSD radix sort on a 16-bit quantised x (sortRadix).
func (st *Sorter) SortGroups(s *Slab) {
	big := 0
	for k := range s.Ranks {
		big = max(big, int(s.Starts[k+1]-s.Starts[k]))
	}
	if big > insertionSortMax {
		if cap(st.keys) < big {
			st.keys, st.tmp = make([]uint64, big), make([]uint64, big)
		}
		if s.Payloads != nil && cap(st.tmpP) < big {
			st.tmpP = make([][]byte, big)
		}
	}
	for k := range s.Ranks {
		lo, hi := int(s.Starts[k]), int(s.Starts[k+1])
		if hi-lo <= insertionSortMax {
			insertionSort(s, lo, hi)
		} else {
			st.sortRadix(s, lo, hi)
		}
	}
	clear(st.tmpP) // hold no payload past the slab
}

// insertionSort sorts the slab rows [lo, hi) by ascending x, moving the
// payload lane with its rows when there is one.
func insertionSort(s *Slab, lo, hi int) {
	xs, ys, ids := s.Xs[lo:hi], s.Ys[lo:hi], s.IDs[lo:hi]
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		if xs[i-1] <= x {
			continue // already in place
		}
		y, id := ys[i], ids[i]
		j := i
		for j > 0 && xs[j-1] > x {
			xs[j], ys[j], ids[j] = xs[j-1], ys[j-1], ids[j-1]
			j--
		}
		xs[j], ys[j], ids[j] = x, y, id
		if s.Payloads != nil {
			ps := s.Payloads[lo:hi]
			p := ps[i]
			copy(ps[j+1:i+1], ps[j:i])
			ps[j] = p
		}
	}
}

// keyBits is the width of the quantised x key: two 8-bit counting
// passes.
const keyBits = 16

// sortRadix sorts the slab rows [lo, hi) by ascending x, ties in row
// order. Each row's key is its x quantised over the group's own
// [min, max] to keyBits bits, packed above its row index into one
// uint64; two stable counting passes order the keys, each run of equal
// keys is then ordered by exact x with a stable comparison sort, and
// every lane is gathered once through the resulting permutation.
// Subtraction, multiplication by a positive scale and truncation are
// monotone, so only rows that share a key can be out of x order. The
// caller has sized st's scratch to at least hi-lo rows; x must be
// finite.
func (st *Sorter) sortRadix(s *Slab, lo, hi int) {
	n := hi - lo
	sub := s.Xs[lo:hi]
	xmin, xmax := sub[0], sub[0]
	for _, x := range sub[1:] {
		if x < xmin {
			xmin = x
		} else if x > xmax {
			xmax = x
		}
	}
	if xmin == xmax {
		return // all x equal: row order is the order
	}
	const top = 1<<keyBits - 1
	scale := top / (xmax - xmin) // 0 when the range overflows
	if math.IsInf(scale, 0) {
		scale = 0 // a subnormal range: one run, sorted exactly below
	}

	keys, tmp := st.keys[:n], st.tmp[:n]
	var count [2][256]int32
	for i, x := range sub {
		q := (x - xmin) * scale
		if !(q <= top) {
			q = top
		}
		k := uint32(q)
		count[0][k&0xff]++
		count[1][k>>8]++
		keys[i] = uint64(k)<<32 | uint64(i)
	}
	for d := range count {
		shift := 32 + 8*d
		c := &count[d]
		if c[keys[0]>>shift&0xff] == int32(n) {
			continue // one digit holds every row
		}
		var at int32
		for b, m := range c {
			c[b] = at
			at += m
		}
		for _, k := range keys {
			b := k >> shift & 0xff
			tmp[c[b]] = k
			c[b]++
		}
		keys, tmp = tmp, keys
	}

	for i := 0; i < n; {
		j := i + 1
		for j < n && keys[j]>>32 == keys[i]>>32 {
			j++
		}
		if run := keys[i:j]; len(run) > 1 && !runSorted(run, sub) {
			slices.SortStableFunc(run, func(a, b uint64) int {
				return cmp.Compare(sub[uint32(a)], sub[uint32(b)])
			})
		}
		i = j
	}

	// tmp is free: it holds each lane's old rows while the lane is
	// gathered through the permutation in the keys' low halves.
	for i, x := range sub {
		tmp[i] = math.Float64bits(x)
	}
	for i, k := range keys {
		sub[i] = math.Float64frombits(tmp[uint32(k)])
	}
	ys := s.Ys[lo:hi]
	for i, y := range ys {
		tmp[i] = math.Float64bits(y)
	}
	for i, k := range keys {
		ys[i] = math.Float64frombits(tmp[uint32(k)])
	}
	ids := s.IDs[lo:hi]
	for i, id := range ids {
		tmp[i] = uint64(id)
	}
	for i, k := range keys {
		ids[i] = int64(tmp[uint32(k)])
	}
	if s.Payloads != nil {
		ps, old := s.Payloads[lo:hi], st.tmpP[:n]
		copy(old, ps)
		for i, k := range keys {
			ps[i] = old[uint32(k)]
		}
	}
}

// runSorted reports whether a run of keys is already in ascending order
// of the x its rows index.
func runSorted(run []uint64, xs []float64) bool {
	for i := 1; i < len(run); i++ {
		if xs[uint32(run[i])] < xs[uint32(run[i-1])] {
			return false
		}
	}
	return true
}

// Seg is an append-only columnar run of rows bound for one slab — a Log
// with one rank per row that carries its rows (and their modelled wire
// bytes) with it.
type Seg struct {
	Ranks  []int32
	Xs, Ys []float64
	IDs    []int64
	Bytes  int64
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

// Len returns the number of records in the segment.
func (s *Seg) Len() int { return len(s.Ranks) }

// Builder sorts segments into single slabs, reusing its dense per-rank
// counters (all-zero between builds) and sort scratch across BuildInto
// calls; it must not be shared across goroutines.
type Builder struct {
	sorter Sorter
	logs   [1]Log  // the segments of one build, histogrammed as one split
	part   []int32 // all zero: every rank belongs to the one slab
}

// NewBuilder returns a Builder for slabs whose ranks lie in
// [0, numRanks).
func NewBuilder(numRanks int) *Builder {
	b := &Builder{part: make([]int32, numRanks)}
	b.logs[0] = Log{rows: make([]int32, numRanks), bytes: make([]int64, 1)}
	return b
}

// BuildInto counting-sorts the segments of one reduce partition into
// dst. Taken in order the segments are one log — one histogram, one
// cursor per rank, rows of a group in (segment, append) order — so the
// slab is laid out by Layout and sorted by Sorter like the engine's;
// only the lane-to-lane copy is BuildInto's own. Segment index w is the
// producing map split of the per-worker attribution.
func (b *Builder) BuildInto(dst *Slab, segs []Seg) error {
	lg := &b.logs[0]
	lg.bytes[0] = 0
	for w := range segs {
		for _, r := range segs[w].Ranks {
			lg.rows[r]++
		}
		lg.bytes[0] += segs[w].Bytes
	}
	one := [1]Slab{}
	err := Layout(one[:], b.logs[:], b.part)
	*dst = one[0]
	if err == nil {
		dst.WorkerRows = make([]int32, len(segs))
		dst.WorkerBytes = make([]int64, len(segs))
		for w := range segs {
			seg := &segs[w]
			dst.WorkerRows[w], dst.WorkerBytes[w] = int32(seg.Len()), seg.Bytes
			for i, r := range seg.Ranks {
				pos := lg.rows[r]
				lg.rows[r] = pos + 1
				dst.Xs[pos], dst.Ys[pos], dst.IDs[pos] = seg.Xs[i], seg.Ys[i], seg.IDs[i]
			}
		}
		b.sorter.SortGroups(dst)
	}
	// Restore the all-zero counter invariant by walking only the ranks
	// this build touched.
	for w := range segs {
		for _, r := range segs[w].Ranks {
			lg.rows[r] = 0
		}
	}
	return err
}

// JoinSlabs joins the matching rank groups of two slabs, adding every
// pair within eps to out and returning the partition cost
// Σ |R_group|·|S_group| over the matched groups. Both slabs' rank
// lists are ascending, so matching is a linear merge, and every matched
// group is swept in place by colsweep.SweepSorted. Zero allocations.
func JoinSlabs(r, s *Slab, eps float64, out *colsweep.Sink) (cost int64) {
	cost, _ = JoinSlabsContext(context.Background(), r, s, eps, nil, out)
	return cost
}

// JoinSlabsContext is JoinSlabs with a kernel and cancellation. A nil
// kernel sweeps every matched group with colsweep.SweepSorted; a
// non-nil one is called instead, once per matched group, with the
// group's rank as the cell and zero-copy views of both groups' rows.
// ctx is checked once per matched group: when ctx.Err() is non-nil it
// returns that error, with out and cost holding the groups joined
// before.
func JoinSlabsContext(ctx context.Context, r, s *Slab, eps float64,
	kernel func(cell int, r, s *Group, eps float64, out *colsweep.Sink), out *colsweep.Sink) (cost int64, err error) {
	// The views escape into the kernel; allocating them only for a
	// kernel keeps the sweep path allocation-free.
	var rg, sg *Group
	if kernel != nil {
		rg, sg = new(Group), new(Group)
	}
	ri, si := 0, 0
	for ri < len(r.Ranks) && si < len(s.Ranks) {
		switch {
		case r.Ranks[ri] < s.Ranks[si]:
			ri++
		case r.Ranks[ri] > s.Ranks[si]:
			si++
		default:
			if err := ctx.Err(); err != nil {
				return cost, err
			}
			rlo, rhi := int(r.Starts[ri]), int(r.Starts[ri+1])
			slo, shi := int(s.Starts[si]), int(s.Starts[si+1])
			cost += int64(rhi-rlo) * int64(shi-slo)
			if kernel != nil {
				rg.view(r, rlo, rhi)
				sg.view(s, slo, shi)
				kernel(int(r.Ranks[ri]), rg, sg, eps, out)
			} else {
				rc := colsweep.Cols{Xs: r.Xs[rlo:rhi], Ys: r.Ys[rlo:rhi], IDs: r.IDs[rlo:rhi]}
				sc := colsweep.Cols{Xs: s.Xs[slo:shi], Ys: s.Ys[slo:shi], IDs: s.IDs[slo:shi]}
				colsweep.SweepSorted(&rc, &sc, eps, out)
			}
			ri++
			si++
		}
	}
	return cost, nil
}

// HilbertRanks returns the dense rank of every cell of an nx×ny grid
// along the Hilbert curve: ranks[cell] ∈ [0, nx·ny), with rank order
// following the curve. Cell ids are row-major (cy·nx+cx). The curve is
// that of the smallest power-of-two square holding the grid; it is
// walked in curve order and every sub-square wholly outside the grid is
// skipped, so the walk costs about the grid's cells, whatever its shape.
func HilbertRanks(nx, ny int) []int32 {
	side := 1
	for side < max(nx, ny) {
		side <<= 1
	}
	h := hilbertWalk{nx: nx, ny: ny, ranks: make([]int32, nx*ny)}
	if nx > 0 && ny > 0 {
		h.walk(side, 0, 0, 1, 0, 0, 1)
	}
	return h.ranks
}

// hilbertWalk numbers the cells of an nx×ny grid in Hilbert-curve order.
type hilbertWalk struct {
	nx, ny int
	ranks  []int32
	next   int32
}

// walk visits, in curve order, the size×size square (size a power of
// two) whose local cell (u, v) is the grid cell (ox + ax·u + bx·v,
// oy + ay·u + by·v); the coefficients are a signed permutation. Each
// level takes the quadrants in the order (0,0), (0,1), (1,1), (1,0),
// the first transposed and the last transposed and turned half round —
// the recursion of the classic xy → d conversion, so cells come out in
// ascending curve distance.
func (h *hilbertWalk) walk(size, ox, oy, ax, bx, ay, by int) {
	far := size - 1
	x0 := ox + min(0, ax*far) + min(0, bx*far)
	y0 := oy + min(0, ay*far) + min(0, by*far)
	if x0 >= h.nx || y0 >= h.ny {
		return // wholly outside: the square's extent starts past the grid
	}
	if size == 1 {
		h.ranks[oy*h.nx+ox] = h.next
		h.next++
		return
	}
	s := size / 2
	h.walk(s, ox, oy, bx, ax, by, ay)
	h.walk(s, ox+bx*s, oy+by*s, ax, bx, ay, by)
	h.walk(s, ox+(ax+bx)*s, oy+(ay+by)*s, ax, bx, ay, by)
	h.walk(s, ox+ax*far+bx*(s-1), oy+ay*far+by*(s-1), -bx, -ax, -by, -ay)
}
