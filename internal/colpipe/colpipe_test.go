package colpipe

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/geom"
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
		for r, c := range b.logs[0].rows {
			if c != 0 {
				t.Fatalf("trial %d: counter for rank %d left at %d", trial, r, c)
			}
		}
	}
}

// rowKey packs a row's identity into the payload that must stay with it.
func rowKey(rank int32, x, y float64, id int64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(rank))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(y))
	return binary.LittleEndian.AppendUint64(b, uint64(id))
}

// shuffleSplits runs the engine's counting sort over the given splits:
// one Log per split, every row assigned to the ranks ranksOf appends,
// Layout, a Scatter per split and the group sort. part maps rank → slab.
func shuffleSplits(tb testing.TB, splits [][]tuple.Tuple, ranksOf func(tuple.Tuple, []int) []int, part []int32, slabs int, payload bool) []Slab {
	tb.Helper()
	logs := make([]Log, len(splits))
	var ranks []int
	for w, split := range splits {
		logs[w] = NewLog(len(part), slabs, len(split), payload)
		for _, tu := range split {
			ranks = ranksOf(tu, ranks[:0])
			logs[w].AddRow(ranks, nil, part, tu.KeyedSize(), len(tu.Payload))
		}
	}
	out := make([]Slab, slabs)
	if err := Layout(out, logs, part); err != nil {
		tb.Fatal(err)
	}
	for w, split := range splits {
		logs[w].Scatter(out, part, split)
	}
	var st Sorter
	for p := range out {
		st.SortGroups(&out[p])
	}
	return out
}

// TestScatterPayloadStaysWithRow is the payload-lane property: every
// payload encodes the (x, y, id) of its row and the ranks the row was
// assigned to, some rows carry none, and after layout, scatter and both
// group sorts (insertion-sized and permutation-sized groups) each slab
// row — replicas included — still holds exactly its own payload. A slab
// none of whose rows has a payload gets no lane.
func TestScatterPayloadStaysWithRow(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		workers := 1 + rng.Intn(4)
		numRanks := 1 + rng.Intn(64) // few ranks → large groups, many → tiny ones
		const slabs = 3
		part := make([]int32, numRanks)
		for r := range part {
			part[r] = int32(rng.Intn(slabs - 1)) // slab 2 stays empty
		}
		bareSlab := int32(rng.Intn(slabs - 1)) // its rows carry no payload
		assigned := map[int64][]int{}
		splits := make([][]tuple.Tuple, workers)
		bare := 0
		var payloadBytes int64
		for i, n := 0, rng.Intn(3000); i < n; i++ {
			tu := tuple.Tuple{ID: int64(i), Pt: geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}}
			ranks := []int{rng.Intn(numRanks)}
			for rng.Intn(3) == 0 { // replicas stay in the native slab
				if r := rng.Intn(numRanks); part[r] == part[ranks[0]] {
					ranks = append(ranks, r)
				}
			}
			assigned[tu.ID] = ranks
			if rng.Intn(8) > 0 && part[ranks[0]] != bareSlab {
				tu.Payload = rowKey(int32(ranks[0]), tu.Pt.X, tu.Pt.Y, tu.ID)
				payloadBytes += int64(len(tu.Payload) * len(ranks))
			} else {
				bare += len(ranks)
			}
			w := rng.Intn(workers)
			splits[w] = append(splits[w], tu)
		}
		out := shuffleSplits(t, splits, func(tu tuple.Tuple, dst []int) []int { return append(dst, assigned[tu.ID]...) }, part, slabs, true)

		var gotBytes int64
		for p := range out {
			slab := &out[p]
			var slabPayload int64
			for _, n := range slab.WorkerPayload {
				slabPayload += n
			}
			gotBytes += slabPayload
			if slabPayload == 0 {
				if slab.Payloads != nil || slab.WorkerPayload != nil {
					t.Fatalf("trial %d slab %d: no payload bytes but the slab has a lane", trial, p)
				}
				bare -= slab.Rows()
				continue
			}
			if len(slab.Payloads) != slab.Rows() {
				t.Fatalf("trial %d slab %d: %d payloads for %d rows", trial, p, len(slab.Payloads), slab.Rows())
			}
			for k := 0; k < slab.NumGroups(); k++ {
				lo, hi := slab.Group(k)
				if !slices.IsSorted(slab.Xs[lo:hi]) {
					t.Fatalf("trial %d slab %d group %d not x-sorted", trial, p, k)
				}
				for i := lo; i < hi; i++ {
					if !slices.Contains(assigned[slab.IDs[i]], int(slab.Ranks[k])) {
						t.Fatalf("trial %d slab %d: row %d in rank %d, assigned %v", trial, p, slab.IDs[i], slab.Ranks[k], assigned[slab.IDs[i]])
					}
					if slab.Payloads[i] == nil {
						bare--
						continue
					}
					want := rowKey(int32(assigned[slab.IDs[i]][0]), slab.Xs[i], slab.Ys[i], slab.IDs[i])
					if !bytes.Equal(slab.Payloads[i], want) {
						t.Fatalf("trial %d slab %d group %d row %d (id %d): payload belongs to another row", trial, p, k, i, slab.IDs[i])
					}
				}
			}
			// The group views a kernel is handed carry the same rows and lane.
			views := 0
			JoinSlabsContext(context.Background(), slab, slab, 1, func(cell int, r, s *Group, _ float64, _ *colsweep.Sink) {
				k, _ := slices.BinarySearch(slab.Ranks, int32(cell))
				lo, hi := slab.Group(k)
				if !slices.Equal(r.IDs, slab.IDs[lo:hi]) || !slices.Equal(r.Xs, slab.Xs[lo:hi]) || !slices.Equal(s.Ys, slab.Ys[lo:hi]) ||
					!slices.EqualFunc(r.Payloads, slab.Payloads[lo:hi], bytes.Equal) || len(s.Payloads) != hi-lo {
					t.Fatalf("trial %d slab %d group %d: the kernel's view diverges from its rows", trial, p, k)
				}
				views++
			}, nil)
			if views != slab.NumGroups() {
				t.Fatalf("trial %d slab %d: kernel saw %d of %d groups", trial, p, views, slab.NumGroups())
			}

			// Wire round trip: lanes and payload column survive bit for bit.
			back := readWire(t, writeWire(t, slab))
			if !slices.Equal(back.Ranks, slab.Ranks) || !slices.Equal(back.Starts, slab.Starts) ||
				!slices.Equal(back.Xs, slab.Xs) || !slices.Equal(back.Ys, slab.Ys) || !slices.Equal(back.IDs, slab.IDs) ||
				!slices.EqualFunc(back.Payloads, slab.Payloads, bytes.Equal) {
				t.Fatalf("trial %d: slab changed across the wire", trial)
			}
		}
		if gotBytes != payloadBytes {
			t.Fatalf("trial %d: per-worker payload bytes sum to %d, want %d", trial, gotBytes, payloadBytes)
		}
		if bare != 0 {
			t.Fatalf("trial %d: payload-less row count off by %d", trial, bare)
		}
		if out[slabs-1].Rows() != 0 || len(out[slabs-1].Starts) != 1 {
			t.Fatalf("trial %d: the slab no rank maps to holds %d rows, starts %v", trial, out[slabs-1].Rows(), out[slabs-1].Starts)
		}
	}
}

// TestLayoutRejectsOffsetOverflow: slab offsets are int32, so a slab
// side past 2³¹−1 rows must be an error — found from the histograms
// alone, before any lane is allocated — and a slab exactly at the limit
// must not be. The logs here are synthetic counts; no row exists.
func TestLayoutRejectsOffsetOverflow(t *testing.T) {
	hist := func(counts ...int32) Log {
		return Log{rows: counts, bytes: make([]int64, 2)}
	}
	part := []int32{0, 1, 0, 1}
	// Slab 1 receives (1<<30)+(1<<30) rows in rank 1 and 5 in rank 3.
	logs := []Log{hist(3, 1<<30, 0, 5), hist(0, 1<<30, 7, 0)}
	err := Layout(make([]Slab, 2), logs, part)
	if err == nil {
		t.Fatal("a slab of 2³¹+5 rows was laid out with 32-bit offsets")
	}
	if want := "partition 1 holds 2147483653 rows"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the slab and its size (%q)", err, want)
	}
	if logs[0].rows[1] != 1<<30 || logs[1].rows[2] != 7 {
		t.Fatal("a failed layout rewrote the histograms")
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

// TestCurveRanksBijection: the Hilbert order is a bijection cell →
// [0, nx·ny) for square and rectangular grids.
func TestCurveRanksBijection(t *testing.T) {
	for _, dims := range [][2]int{{8, 8}, {16, 16}, {5, 3}, {1, 9}, {13, 7}} {
		nx, ny := dims[0], dims[1]
		ranks := HilbertRanks(nx, ny)
		if len(ranks) != nx*ny {
			t.Fatalf("%dx%d: %d ranks", nx, ny, len(ranks))
		}
		seen := make([]bool, nx*ny)
		for cell, r := range ranks {
			if r < 0 || int(r) >= nx*ny || seen[r] {
				t.Fatalf("%dx%d: cell %d has invalid/duplicate rank %d", nx, ny, cell, r)
			}
			seen[r] = true
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
// Hilbert-ordered slab path on the engine's entry points: four splits
// per side logged by Hilbert rank, laid out, scattered and sorted into
// one slab each, then joined. One op is one reduce partition's map log
// + shuffle + join.
func BenchmarkBuildJoinHilbert(b *testing.B) {
	const nx, ny = 16, 16
	ranks := HilbertRanks(nx, ny)
	part := make([]int32, nx*ny)
	rng := rand.New(rand.NewSource(3))
	mkSplits := func(idBase int64) [][]tuple.Tuple {
		splits := make([][]tuple.Tuple, 4)
		for i := 0; i < 20000; i++ {
			tu := tuple.Tuple{ID: idBase + int64(i), Pt: geom.Point{X: rng.Float64() * nx, Y: rng.Float64() * ny}}
			w := rng.Intn(len(splits))
			splits[w] = append(splits[w], tu)
		}
		return splits
	}
	hilbert := func(tu tuple.Tuple, dst []int) []int {
		return append(dst, int(ranks[int(tu.Pt.Y)*nx+int(tu.Pt.X)]))
	}
	rsplits, ssplits := mkSplits(0), mkSplits(1<<40)
	var pairs int64
	bufs := colsweep.Get()
	defer colsweep.Put(bufs)
	bat := bufs.Batch(func(ps []tuple.Pair) { pairs += int64(len(ps)) }, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := shuffleSplits(b, rsplits, hilbert, part, 1, false)
		ss := shuffleSplits(b, ssplits, hilbert, part, 1, false)
		JoinSlabs(&rs[0], &ss[0], 0.1, bat)
		bat.Flush()
	}
	_ = pairs
}
