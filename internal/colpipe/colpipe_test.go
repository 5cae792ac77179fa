package colpipe

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/tuple"
)

// randSegs scatters n records across `workers` segments with ranks in
// [0, numRanks), mimicking one reduce partition's map output.
func randSegs(rng *rand.Rand, workers, n, numRanks int, idBase int64) []Seg {
	segs := make([]Seg, workers)
	for i := 0; i < n; i++ {
		w := rng.Intn(workers)
		segs[w].Append(int32(rng.Intn(numRanks)), rng.Float64()*10, rng.Float64()*10, idBase+int64(i), 24)
	}
	return segs
}

type row struct {
	rank int32
	x, y float64
	id   int64
}

func segRows(segs []Seg) []row {
	var out []row
	for w := range segs {
		s := &segs[w]
		for i := range s.Ranks {
			out = append(out, row{s.Ranks[i], s.Xs[i], s.Ys[i], s.IDs[i]})
		}
	}
	return out
}

func slabRows(s *Slab) []row {
	var out []row
	for k := 0; k < s.NumGroups(); k++ {
		lo, hi := s.Group(k)
		for i := lo; i < hi; i++ {
			out = append(out, row{s.Ranks[k], s.Xs[i], s.Ys[i], s.IDs[i]})
		}
	}
	return out
}

func sortRows(rs []row) {
	slices.SortFunc(rs, func(a, b row) int {
		switch {
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		}
		return 0
	})
}

// TestBuildIntoGroupsAndSorts checks the counting sort end to end: the
// slab holds exactly the segment rows, grouped by ascending rank, each
// group sorted by x, with the per-worker row/byte attribution intact.
func TestBuildIntoGroupsAndSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const numRanks = 64
	b := NewBuilder(numRanks)
	var slab Slab
	for trial := 0; trial < 20; trial++ {
		segs := randSegs(rng, 1+rng.Intn(4), rng.Intn(3000), numRanks, int64(trial)<<32)
		b.BuildInto(&slab, segs)

		if !slices.IsSorted(slab.Ranks) {
			t.Fatalf("trial %d: group ranks not ascending: %v", trial, slab.Ranks)
		}
		if len(slab.Starts) != len(slab.Ranks)+1 {
			t.Fatalf("trial %d: %d starts for %d groups", trial, len(slab.Starts), len(slab.Ranks))
		}
		for k := 0; k < slab.NumGroups(); k++ {
			lo, hi := slab.Group(k)
			if lo >= hi {
				t.Fatalf("trial %d: empty group %d", trial, k)
			}
			if !slices.IsSorted(slab.Xs[lo:hi]) {
				t.Fatalf("trial %d: group %d not x-sorted", trial, k)
			}
		}

		want, got := segRows(segs), slabRows(&slab)
		sortRows(want)
		sortRows(got)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: slab rows diverge from segment rows (%d vs %d)",
				trial, len(got), len(want))
		}

		var totalRows int32
		var totalBytes int64
		for w := range segs {
			if slab.WorkerRows[w] != int32(segs[w].Len()) || slab.WorkerBytes[w] != segs[w].Bytes {
				t.Fatalf("trial %d: worker %d attribution %d rows/%d bytes, want %d/%d",
					trial, w, slab.WorkerRows[w], slab.WorkerBytes[w], segs[w].Len(), segs[w].Bytes)
			}
			totalRows += slab.WorkerRows[w]
			totalBytes += segs[w].Bytes
		}
		if int(totalRows) != slab.Rows() || totalBytes != slab.Bytes {
			t.Fatalf("trial %d: totals %d rows/%d bytes, want %d/%d",
				trial, slab.Rows(), slab.Bytes, totalRows, totalBytes)
		}

		// The dense counter array must be all-zero again or the next
		// build silently corrupts group sizes.
		for r, c := range b.counts {
			if c != 0 {
				t.Fatalf("trial %d: counter for rank %d left at %d", trial, r, c)
			}
		}
	}
}

// TestBuildIntoZeroAllocSteadyState: a warm Builder/Slab pair must
// rebuild without allocating — the shuffle's inner loop runs once per
// partition per execute, and its churn was the point of the refactor.
func TestBuildIntoZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const numRanks = 128
	segs := randSegs(rng, 4, 5000, numRanks, 0)
	b := NewBuilder(numRanks)
	var slab Slab
	b.BuildInto(&slab, segs) // warm the slab lanes and sort scratch
	if allocs := testing.AllocsPerRun(50, func() {
		b.BuildInto(&slab, segs)
	}); allocs > 0 {
		t.Errorf("steady-state BuildInto allocates %.1f objects/op, want 0", allocs)
	}
	if slab.Payloads != nil || slab.WorkerPayload != nil {
		t.Errorf("point slab grew a payload lane (%d payloads)", len(slab.Payloads))
	}
}

// rowKey packs a row's identity into the payload that must stay with it.
func rowKey(rank int32, x, y float64, id int64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(rank))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(y))
	return binary.LittleEndian.AppendUint64(b, uint64(id))
}

// TestBuildIntoPayloadStaysWithRow is the payload-lane property: every
// payload encodes the (rank, x, y, id) it was appended with, some rows
// carry none, and after the counting sort and both group sorts
// (insertion-sized and permutation-sized groups) each slab row still
// holds exactly its own payload. A slab reused for a point partition
// afterwards drops the lane again.
func TestBuildIntoPayloadStaysWithRow(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	b := NewBuilder(64)
	var slab Slab
	for trial := 0; trial < 20; trial++ {
		workers := 1 + rng.Intn(4)
		segs := make([]Seg, workers)
		numRanks := 1 + rng.Intn(64) // few ranks → large groups, many → tiny ones
		bare := 0
		var payloadBytes int64
		for i, n := 0, rng.Intn(3000); i < n; i++ {
			w := rng.Intn(workers)
			rank, x, y, id := int32(rng.Intn(numRanks)), rng.Float64()*10, rng.Float64()*10, int64(i)
			var payload []byte
			if rng.Intn(8) > 0 {
				payload = rowKey(rank, x, y, id)
				payloadBytes += int64(len(payload))
			} else {
				bare++
			}
			segs[w].AppendPayload(rank, x, y, id, 32+len(payload), payload)
		}
		b.BuildInto(&slab, segs)

		if payloadBytes == 0 {
			if slab.Payloads != nil {
				t.Fatalf("trial %d: no payload appended but the slab has a lane", trial)
			}
			continue
		}
		if len(slab.Payloads) != slab.Rows() {
			t.Fatalf("trial %d: %d payloads for %d rows", trial, len(slab.Payloads), slab.Rows())
		}
		var gotBytes int64
		for _, n := range slab.WorkerPayload {
			gotBytes += n
		}
		if gotBytes != payloadBytes {
			t.Fatalf("trial %d: per-worker payload bytes sum to %d, want %d", trial, gotBytes, payloadBytes)
		}
		for k := 0; k < slab.NumGroups(); k++ {
			lo, hi := slab.Group(k)
			for i := lo; i < hi; i++ {
				if slab.Payloads[i] == nil {
					bare--
					continue
				}
				want := rowKey(slab.Ranks[k], slab.Xs[i], slab.Ys[i], slab.IDs[i])
				if !bytes.Equal(slab.Payloads[i], want) {
					t.Fatalf("trial %d group %d row %d (id %d): payload belongs to another row", trial, k, i, slab.IDs[i])
				}
			}
			// The tuple views a kernel is handed carry the same lane.
			for j, tu := range slab.AppendTuples(nil, k) {
				i := lo + j
				if tu.ID != slab.IDs[i] || tu.Pt.X != slab.Xs[i] || tu.Pt.Y != slab.Ys[i] ||
					!bytes.Equal(tu.Payload, slab.Payloads[i]) {
					t.Fatalf("trial %d group %d: tuple view %d diverges from its row", trial, k, j)
				}
			}
		}
		if bare != 0 {
			t.Fatalf("trial %d: payload-less row count off by %d", trial, bare)
		}

		// Wire round trip: lanes and payload column survive bit for bit.
		var back Slab
		rest, err := back.DecodeWire(slab.AppendWire(nil))
		if err != nil || len(rest) != 0 {
			t.Fatalf("trial %d: wire round trip: %v (%d trailing bytes)", trial, err, len(rest))
		}
		if !slices.Equal(back.Ranks, slab.Ranks) || !slices.Equal(back.Starts, slab.Starts) ||
			!slices.Equal(back.Xs, slab.Xs) || !slices.Equal(back.Ys, slab.Ys) || !slices.Equal(back.IDs, slab.IDs) ||
			!slices.EqualFunc(back.Payloads, slab.Payloads, bytes.Equal) {
			t.Fatalf("trial %d: slab changed across the wire", trial)
		}
	}

	b.BuildInto(&slab, randSegs(rng, 2, 100, 64, 0))
	if slab.Payloads != nil || slab.WorkerPayload != nil {
		t.Fatal("slab reused for a point partition kept its payload lane")
	}
}

// TestJoinSlabsDifferential compares JoinSlabs (linear rank merge,
// nested-loop/sweep split) against a brute-force join over all
// same-rank row pairs.
func TestJoinSlabsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const numRanks = 32
	b := NewBuilder(numRanks)
	for trial := 0; trial < 10; trial++ {
		rsegs := randSegs(rng, 3, 800, numRanks, 0)
		ssegs := randSegs(rng, 3, 800, numRanks, 1<<40)
		var rslab, sslab Slab
		b.BuildInto(&rslab, rsegs)
		b.BuildInto(&sslab, ssegs)

		eps := 0.2 + rng.Float64()
		var want []tuple.Pair
		for _, r := range segRows(rsegs) {
			for _, s := range segRows(ssegs) {
				dx, dy := r.x-s.x, r.y-s.y
				if r.rank == s.rank && dx*dx+dy*dy <= eps*eps {
					want = append(want, tuple.Pair{RID: r.id, SID: s.id})
				}
			}
		}

		var got []tuple.Pair
		bufs := colsweep.Get()
		bat := bufs.Batch(func(ps []tuple.Pair) { got = append(got, ps...) }, false)
		cost := JoinSlabs(&rslab, &sslab, eps, bat)
		bat.Flush()
		colsweep.Put(bufs)

		sortPairs(got)
		sortPairs(want)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d eps=%.3f: %d pairs, want %d", trial, eps, len(got), len(want))
		}
		if cost < int64(len(want)) {
			t.Fatalf("trial %d: cost %d below pair count %d", trial, cost, len(want))
		}
	}
}

func sortPairs(ps []tuple.Pair) {
	slices.SortFunc(ps, func(a, b tuple.Pair) int {
		switch {
		case a.RID != b.RID:
			if a.RID < b.RID {
				return -1
			}
			return 1
		case a.SID < b.SID:
			return -1
		case a.SID > b.SID:
			return 1
		}
		return 0
	})
}

// TestCurveRanksBijection: both curve orders are bijections cell →
// [0, nx·ny) for square and rectangular grids.
func TestCurveRanksBijection(t *testing.T) {
	for _, dims := range [][2]int{{8, 8}, {16, 16}, {5, 3}, {1, 9}, {13, 7}} {
		nx, ny := dims[0], dims[1]
		for name, ranks := range map[string][]int32{
			"morton":  MortonRanks(nx, ny),
			"hilbert": HilbertRanks(nx, ny),
		} {
			if len(ranks) != nx*ny {
				t.Fatalf("%s %dx%d: %d ranks", name, nx, ny, len(ranks))
			}
			seen := make([]bool, nx*ny)
			for cell, r := range ranks {
				if r < 0 || int(r) >= nx*ny || seen[r] {
					t.Fatalf("%s %dx%d: cell %d has invalid/duplicate rank %d", name, nx, ny, cell, r)
				}
				seen[r] = true
			}
		}
	}
}

// TestHilbertAdjacency: on a power-of-two square grid the Hilbert curve
// is a Hamiltonian path — consecutive ranks are grid neighbours. This
// is the locality property the slab ordering buys (Morton takes long
// diagonal jumps and deliberately has no such guarantee).
func TestHilbertAdjacency(t *testing.T) {
	const n = 16
	ranks := HilbertRanks(n, n)
	cellOf := make([]int, n*n)
	for cell, r := range ranks {
		cellOf[r] = cell
	}
	for r := 1; r < n*n; r++ {
		a, b := cellOf[r-1], cellOf[r]
		ax, ay := a%n, a/n
		bx, by := b%n, b/n
		dx, dy := ax-bx, ay-by
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		if dx+dy != 1 {
			t.Fatalf("ranks %d->%d jump from cell (%d,%d) to (%d,%d)", r-1, r, ax, ay, bx, by)
		}
	}
}

// BenchmarkBuildJoinHilbert is the bench-smoke row for the
// Hilbert-ordered slab path: map segments whose ranks follow
// HilbertRanks, counting-sorted into slabs, then joined. One op is one
// reduce partition's shuffle + join.
func BenchmarkBuildJoinHilbert(b *testing.B) {
	const nx, ny = 16, 16
	ranks := HilbertRanks(nx, ny)
	rng := rand.New(rand.NewSource(3))
	mkSegs := func(idBase int64) []Seg {
		segs := make([]Seg, 4)
		for i := 0; i < 20000; i++ {
			x, y := rng.Float64()*float64(nx), rng.Float64()*float64(ny)
			cell := int(y)*nx + int(x)
			segs[rng.Intn(len(segs))].Append(ranks[cell], x, y, idBase+int64(i), 24)
		}
		return segs
	}
	rsegs, ssegs := mkSegs(0), mkSegs(1<<40)
	bl := NewBuilder(nx * ny)
	var rslab, sslab Slab
	var pairs int64
	bufs := colsweep.Get()
	defer colsweep.Put(bufs)
	bat := bufs.Batch(func(ps []tuple.Pair) { pairs += int64(len(ps)) }, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl.BuildInto(&rslab, rsegs)
		bl.BuildInto(&sslab, ssegs)
		JoinSlabs(&rslab, &sslab, 0.1, bat)
		bat.Flush()
	}
	_ = pairs
}
