package colsweep_test

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/tuple"
)

// joinColumnar runs one cell through JoinCell in count mode and returns
// its count and checksum as a counter.
func joinColumnar(rs, ss []tuple.Tuple, eps float64, selfFilter bool) sweep.Counter {
	b := colsweep.Get()
	defer colsweep.Put(b)
	out := b.Sink(false, selfFilter)
	colsweep.JoinCell(b, rs, ss, eps, out)
	return sweep.Counter{N: out.N, Checksum: out.Checksum}
}

func randomTuples(rng *rand.Rand, n int, extent float64, base int64) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	for i := range out {
		out[i] = tuple.Tuple{
			ID: base + int64(i),
			Pt: geom.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent},
		}
	}
	return out
}

// latticeTuples places points on an exact (eps/2)-lattice so many pairs
// sit at distance exactly eps — the closed-predicate border the nested
// loop and the columnar kernel must agree on bit-for-bit.
func latticeTuples(rng *rand.Rand, n int, eps float64, base int64) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	step := eps / 2
	for i := range out {
		out[i] = tuple.Tuple{
			ID: base + int64(i),
			Pt: geom.Point{X: float64(rng.Intn(12)) * step, Y: float64(rng.Intn(12)) * step},
		}
	}
	return out
}

// borderTuples generates pairs separated by exactly eps along an axis.
func borderTuples(rng *rand.Rand, n int, eps float64, base int64) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	for i := range out {
		x := rng.Float64() * 4
		y := rng.Float64() * 4
		if i%2 == 1 {
			x += eps // exactly eps from the previous point's column
		}
		out[i] = tuple.Tuple{ID: base + int64(i), Pt: geom.Point{X: x, Y: y}}
	}
	return out
}

// checkDifferential asserts columnar == nested loop on one input.
func checkDifferential(t *testing.T, rs, ss []tuple.Tuple, eps float64, label string) {
	t.Helper()
	var oracle sweep.Counter
	sweep.NestedLoop(rs, ss, eps, oracle.Emit)
	col := joinColumnar(rs, ss, eps, false)
	if oracle != col {
		t.Fatalf("%s: columnar %d/%x, oracle %d/%x", label, col.N, col.Checksum, oracle.N, oracle.Checksum)
	}
}

func TestColumnarDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		nr, ns := rng.Intn(300), rng.Intn(300)
		eps := 0.05 + rng.Float64()*2
		rs := randomTuples(rng, nr, 20, 0)
		ss := randomTuples(rng, ns, 20, 1_000_000)
		checkDifferential(t, rs, ss, eps, "random")
	}
}

func TestColumnarDifferentialLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 40; trial++ {
		eps := []float64{0.25, 0.5, 1}[rng.Intn(3)]
		rs := latticeTuples(rng, 20+rng.Intn(200), eps, 0)
		ss := latticeTuples(rng, 20+rng.Intn(200), eps, 1_000_000)
		checkDifferential(t, rs, ss, eps, "lattice")
	}
}

func TestColumnarDifferentialExactEpsBorder(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		eps := 0.125 * float64(1+rng.Intn(8)) // powers keep x+eps exact
		rs := borderTuples(rng, 20+rng.Intn(150), eps, 0)
		ss := borderTuples(rng, 20+rng.Intn(150), eps, 1_000_000)
		checkDifferential(t, rs, ss, eps, "border")
	}
}

func TestColumnarSelfFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ts := randomTuples(rng, 250, 8, 0)
	eps := 0.5
	// The oracle's self-filter: r.ID < s.ID.
	var want sweep.Counter
	sweep.NestedLoop(ts, ts, eps, func(r, s tuple.Tuple) {
		if r.ID < s.ID {
			want.Emit(r, s)
		}
	})
	got := joinColumnar(ts, ts, eps, true)
	if want != got {
		t.Fatalf("self-filter columnar %d/%x, nested loop %d/%x", got.N, got.Checksum, want.N, want.Checksum)
	}
	if got.N == 0 {
		t.Fatal("self-join produced no pairs; widen the workload")
	}
}

func TestColumnarEmptyAndTiny(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ss := randomTuples(rng, 5, 1, 1000)
	if c := joinColumnar(nil, ss, 1, false); c.N != 0 {
		t.Fatalf("empty R side must join empty, got %d", c.N)
	}
	if c := joinColumnar(ss, nil, 1, false); c.N != 0 {
		t.Fatalf("empty S side must join empty, got %d", c.N)
	}
	for trial := 0; trial < 20; trial++ {
		rs := randomTuples(rng, 1+rng.Intn(8), 1, 0)
		ts := randomTuples(rng, 1+rng.Intn(8), 1, 1000)
		checkDifferential(t, rs, ts, 0.3, "tiny")
	}
}

// TestColumnarBatchBoundary drives the join across the BatchSize flush
// boundary: a dense cell producing far more than one batch of pairs.
func TestColumnarBatchBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	rs := randomTuples(rng, 300, 1, 0) // dense: ~all pairs qualify
	ss := randomTuples(rng, 300, 1, 1_000_000)
	checkDifferential(t, rs, ss, 1.5, "dense")
}

func TestColumnarZeroAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	rs := randomTuples(rng, 2000, 50, 0)
	ss := randomTuples(rng, 2000, 50, 1_000_000)
	var n int
	b := colsweep.Get()
	defer colsweep.Put(b)
	bat := b.Batch(func(ps []tuple.Pair) { n += len(ps) }, false)
	// Warm the pooled buffers to steady-state capacity once.
	colsweep.JoinCell(b, rs, ss, 0.5, bat)
	bat.Flush()
	allocs := testing.AllocsPerRun(10, func() {
		colsweep.JoinCell(b, rs, ss, 0.5, bat)
		bat.Flush()
	})
	if allocs != 0 {
		t.Fatalf("columnar JoinCell allocated %v times per join, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("workload produced no pairs; the alloc assertion is vacuous")
	}
}

func TestProbeMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	var sel []int32
	for trial := 0; trial < 30; trial++ {
		ts := randomTuples(rng, 1+rng.Intn(400), 10, 0)
		slices.SortFunc(ts, func(a, b tuple.Tuple) int { return cmp.Compare(a.Pt.X, b.Pt.X) })
		var cols colsweep.Cols
		cols.Pack(ts)
		eps := 0.1 + rng.Float64()
		for probe := 0; probe < 20; probe++ {
			p := geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
			var want []int32
			for i, m := range ts {
				if p.SqDist(m.Pt) <= eps*eps {
					want = append(want, int32(i))
				}
			}
			sel = colsweep.Probe(&cols, p.X, p.Y, eps, sel)
			if !slices.Equal(sel, want) {
				t.Fatalf("trial %d: probe %v, linear scan %v", trial, sel, want)
			}
		}
	}
}

// decimalEps and decimalOffsets span the decimal-offset lattices: ε
// values and lattice origins with no exact binary form, where x ± ε
// rounds and pairs at distance exactly ε sit on the window's edge.
var (
	decimalEps     = [8]float64{0.1, 0.3, 1.0 / 3, 0.7, 0.007, 2.5, 0.15, 0.45}
	decimalOffsets = [4]float64{0.1, -3.7, 1000, 12345.678}
)

// TestWindowDecimalOffsetLattice checks SweepSorted and Probe against
// the nested loop on full (ε/2)-lattices of 16 × 16 positions for every
// decimal ε and lattice origin. The x-window is a filter: where x ± ε
// rounds inward it must still hold every row the exact test accepts
// (at ε = 2.5, origin 0.1, the rows at x = 0.1 and x = 2.6).
func TestWindowDecimalOffsetLattice(t *testing.T) {
	lattice := func(origin, eps float64, base int64) []tuple.Tuple {
		var out []tuple.Tuple
		for i := 0; i < 16; i++ {
			for j := 0; j < 16; j++ {
				pt := geom.Point{X: origin + float64(i)*eps/2, Y: origin + float64(j)*eps/2}
				out = append(out, tuple.Tuple{ID: base + int64(len(out)), Pt: pt})
			}
		}
		return out
	}
	b := colsweep.Get()
	defer colsweep.Put(b)
	for _, eps := range decimalEps {
		for _, origin := range append([]float64{0}, decimalOffsets[:]...) {
			rs, ss := lattice(origin, eps, 0), lattice(origin, eps, 1_000_000)
			var want sweep.Counter
			sweep.NestedLoop(rs, ss, eps, want.Emit)
			r, s := sortedCols(rs), sortedCols(ss)
			out := b.Sink(false, false)
			colsweep.SweepSorted(&r, &s, eps, out)
			if out.N != want.N || out.Checksum != want.Checksum {
				t.Errorf("eps %v, origin %v: SweepSorted %d/%x, nested loop %d/%x", eps, origin, out.N, out.Checksum, want.N, want.Checksum)
			}
			if p := probeEach(rs, ss, eps); p != want {
				t.Errorf("eps %v, origin %v: Probe %d/%x, nested loop %d/%x", eps, origin, p.N, p.Checksum, want.N, want.Checksum)
			}
		}
	}
}

// FuzzColumnarDifferential decodes arbitrary bytes into two point sets
// and asserts the columnar kernel, the slab join and Probe agree with the
// nested loop.
//
// data[0] picks ε (low nibble: eight dyadic values, then the decimal
// values of decimalEps) and the lattice origin (bits 4–6: zero below 4,
// else a decimal offset of decimalOffsets), so seeds reach the
// decimal-offset lattices where x ± ε rounds inward.
func FuzzColumnarDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(10), uint8(10))
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255}, uint8(1), uint8(1))
	f.Add([]byte{128, 64, 32, 16, 8, 4, 2, 1, 0, 255}, uint8(30), uint8(3))
	// ε = 2.5 on the lattice at origin 0.1: R at x = 2.6 and S at
	// x = 0.1 are exactly ε apart, but 2.6 − 2.5 rounds above 0.1.
	f.Add([]byte{4<<4 | 13, 0, 2, 0, 0}, uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, nr, ns uint8) {
		if len(data) == 0 {
			return
		}
		eps := 0.25 + float64(data[0]%8)/8
		if k := int(data[0] % 16); k >= 8 {
			eps = decimalEps[k-8]
		}
		origin := 0.0
		if k := int(data[0] / 16 % 8); k >= 4 {
			origin = decimalOffsets[k-4]
		}
		decode := func(n int, base int64, off int) []tuple.Tuple {
			out := make([]tuple.Tuple, n)
			for i := range out {
				bx := data[(off+2*i)%len(data)]
				by := data[(off+2*i+1)%len(data)]
				// Quantise to the eps/2 grid so exact-ε borders occur.
				out[i] = tuple.Tuple{
					ID: base + int64(i),
					Pt: geom.Point{X: origin + float64(bx%16)*eps/2, Y: origin + float64(by%16)*eps/2},
				}
			}
			return out
		}
		rs := decode(int(nr%64), 0, 0)
		ss := decode(int(ns%64), 1_000_000, 1)
		var oracle sweep.Counter
		sweep.NestedLoop(rs, ss, eps, oracle.Emit)
		col := joinColumnar(rs, ss, eps, false)
		slab := joinOneGroupSlabs(rs, ss, eps)
		probe := probeEach(rs, ss, eps)
		if oracle != col || oracle != slab || oracle != probe {
			t.Fatalf("kernel divergence: oracle %d/%x, columnar %d/%x, colpipe %d/%x, probe %d/%x",
				oracle.N, oracle.Checksum, col.N, col.Checksum,
				slab.N, slab.Checksum, probe.N, probe.Checksum)
		}
	})
}

// sortedCols packs ts into lanes sorted by x, keeping the x axis (no
// sweep-axis choice, so an input with every x equal stays one).
func sortedCols(ts []tuple.Tuple) colsweep.Cols {
	var c colsweep.Cols
	c.Pack(ts)
	b := colsweep.Get()
	defer colsweep.Put(b)
	c.SortByX(b)
	return c
}

// joinOneGroupSlabs joins rs and ss laid out as one-group colpipe slabs.
func joinOneGroupSlabs(rs, ss []tuple.Tuple, eps float64) sweep.Counter {
	slab := func(ts []tuple.Tuple) *colpipe.Slab {
		c := sortedCols(ts)
		s := &colpipe.Slab{Xs: c.Xs, Ys: c.Ys, IDs: c.IDs}
		if len(ts) > 0 {
			s.Ranks, s.Starts = []int32{0}, []int32{0, int32(len(ts))}
		}
		return s
	}
	b := colsweep.Get()
	defer colsweep.Put(b)
	out := b.Sink(false, false)
	colpipe.JoinSlabs(slab(rs), slab(ss), eps, out)
	return sweep.Counter{N: out.N, Checksum: out.Checksum}
}

// probeEach probes every R point against the x-sorted S lanes.
func probeEach(rs, ss []tuple.Tuple, eps float64) sweep.Counter {
	c := sortedCols(ss)
	var got sweep.Counter
	var sel []int32
	for _, r := range rs {
		sel = colsweep.Probe(&c, r.Pt.X, r.Pt.Y, eps, sel)
		for _, i := range sel {
			got.Emit(r, tuple.Tuple{ID: c.IDs[i]})
		}
	}
	return got
}

func sortPairs(ps []tuple.Pair) []tuple.Pair {
	slices.SortFunc(ps, func(a, b tuple.Pair) int {
		if a.RID != b.RID {
			return cmp.Compare(a.RID, b.RID)
		}
		return cmp.Compare(a.SID, b.SID)
	})
	return ps
}

// TestSweepModesMatchNestedLoop checks every sink mode of the kernel —
// count, collect, batch, self-filter — and Probe against the nested
// loop: the same N and checksum, and the same sorted pair list where
// pairs are delivered.
func TestSweepModesMatchNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	const eps = 0.5
	// lattice puts points on an ε-spaced lattice: many pairs at distance
	// exactly ε, the closed predicate's border.
	lattice := func(n int, base int64) []tuple.Tuple {
		out := make([]tuple.Tuple, n)
		for i := range out {
			out[i] = tuple.Tuple{ID: base + int64(i), Pt: geom.Point{X: float64(rng.Intn(8)) * eps, Y: float64(rng.Intn(8)) * eps}}
		}
		return out
	}
	same := func(n int, base int64, pt func() geom.Point) []tuple.Tuple {
		out := make([]tuple.Tuple, n)
		for i := range out {
			out[i] = tuple.Tuple{ID: base + int64(i), Pt: pt()}
		}
		return out
	}
	coincident := func() geom.Point { return geom.Point{X: 3, Y: 3} }
	equalX := func() geom.Point { return geom.Point{X: 1, Y: rng.Float64() * 20} }
	narrow := func() geom.Point { return geom.Point{X: rng.Float64() * 0.2, Y: rng.Float64() * 4} }
	cases := []struct {
		name   string
		rs, ss []tuple.Tuple
	}{
		{"random", randomTuples(rng, 400, 10, 0), randomTuples(rng, 400, 10, 1_000_000)},
		{"lattice at exactly eps", lattice(300, 0), lattice(300, 1_000_000)},
		{"coincident points", same(100, 0, coincident), same(100, 1_000_000, coincident)},
		{"every x equal", same(200, 0, equalX), same(200, 1_000_000, equalX)},
		{"R empty", nil, randomTuples(rng, 50, 2, 1_000_000)},
		{"S empty", randomTuples(rng, 50, 2, 0), nil},
		{"window wider than the group", randomTuples(rng, 60, 0.3, 0), randomTuples(rng, 60, 0.3, 1_000_000)},
		{"window wider than the selection vector", same(20, 0, narrow), same(3000, 1_000_000, narrow)},
	}
	for _, tc := range cases {
		var want sweep.Counter
		var wantPairs sweep.Collector
		sweep.NestedLoop(tc.rs, tc.ss, eps, func(r, s tuple.Tuple) {
			want.Emit(r, s)
			wantPairs.Emit(r, s)
		})
		if want.N == 0 && len(tc.rs) > 0 && len(tc.ss) > 0 {
			t.Fatalf("%s: no pair within eps; the case checks nothing", tc.name)
		}
		sortPairs(wantPairs.Pairs)
		check := func(mode string, n int64, sum uint64, pairs []tuple.Pair) {
			t.Helper()
			if n != want.N || sum != want.Checksum {
				t.Fatalf("%s, %s: %d/%x, nested loop %d/%x", tc.name, mode, n, sum, want.N, want.Checksum)
			}
			if pairs != nil && !slices.Equal(sortPairs(pairs), wantPairs.Pairs) {
				t.Fatalf("%s, %s: pair list differs from the nested loop's", tc.name, mode)
			}
		}
		r, s := sortedCols(tc.rs), sortedCols(tc.ss)
		b := colsweep.Get()
		out := b.Sink(false, false)
		colsweep.SweepSorted(&r, &s, eps, out)
		check("count", out.N, out.Checksum, nil)

		out = b.Sink(true, false)
		colsweep.SweepSorted(&r, &s, eps, out)
		if want.N > 0 && len(out.Pairs) == 0 {
			t.Fatalf("%s, collect: no pairs collected", tc.name)
		}
		check("collect", out.N, out.Checksum, out.Pairs)

		var batched []tuple.Pair
		bat := b.Batch(func(ps []tuple.Pair) { batched = append(batched, ps...) }, false)
		colsweep.SweepSorted(&r, &s, eps, bat)
		bat.Flush()
		if want.N > 0 && len(batched) == 0 {
			t.Fatalf("%s, batch: no pairs emitted", tc.name)
		}
		check("batch", bat.N, bat.Checksum, batched)

		// Sink.Add records a kernel's own matches through the same step.
		var added []tuple.Pair
		bat = b.Batch(func(ps []tuple.Pair) { added = append(added, ps...) }, false)
		sweep.NestedLoop(tc.rs, tc.ss, eps, func(r, s tuple.Tuple) { bat.Add(r.ID, s.ID) })
		bat.Flush()
		check("add", bat.N, bat.Checksum, added)

		p := probeEach(tc.rs, tc.ss, eps)
		check("probe", p.N, p.Checksum, nil)

		// Self-filter: the self-join of both sides keeps rid < sid only.
		all := append(append([]tuple.Tuple(nil), tc.rs...), tc.ss...)
		var self sweep.Counter
		sweep.NestedLoop(all, all, eps, func(r, s tuple.Tuple) {
			if r.ID < s.ID {
				self.Emit(r, s)
			}
		})
		a := sortedCols(all)
		out = b.Sink(true, true)
		colsweep.SweepSorted(&a, &a, eps, out)
		if out.N != self.N || out.Checksum != self.Checksum || int64(len(out.Pairs)) != self.N {
			t.Fatalf("%s, self-filter: %d/%x (%d pairs), nested loop %d/%x",
				tc.name, out.N, out.Checksum, len(out.Pairs), self.N, self.Checksum)
		}
		colsweep.Put(b)
	}
}

// benchCells builds a partition-shaped workload: many mid-size cells,
// the regime the per-cell kernels live in.
func benchCells(cells, perSide int, extent, _ float64) (rss, sss [][]tuple.Tuple) {
	rng := rand.New(rand.NewSource(99))
	for c := 0; c < cells; c++ {
		rss = append(rss, randomTuples(rng, perSide, extent, int64(c)<<20))
		sss = append(sss, randomTuples(rng, perSide, extent, 1<<40|int64(c)<<20))
	}
	return rss, sss
}

// BenchmarkJoinCellColumnar is the headline sweep microbenchmark: the
// columnar kernel over 64 cells of 256+256 points. The benchmark's layer
// pass tracks the same throughput as colsweep.pairs_per_s.
func BenchmarkJoinCellColumnar(b *testing.B) {
	rss, sss := benchCells(64, 256, 8, 0)
	const eps = 0.5
	bufs := colsweep.Get()
	defer colsweep.Put(bufs)
	out := bufs.Sink(false, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range rss {
			colsweep.JoinCell(bufs, rss[j], sss[j], eps, out)
		}
	}
	b.StopTimer()
	if out.N > 0 {
		b.ReportMetric(float64(out.N)/b.Elapsed().Seconds(), "pairs/sec")
	}
}
