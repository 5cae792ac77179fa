package sweep

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/tuple"
)

func mkTuples(pts []geom.Point, base int64) []tuple.Tuple {
	return tuple.FromPoints(pts, base)
}

func pairsOf(rs, ss []tuple.Tuple, eps float64, join func(r, s []tuple.Tuple, eps float64, emit Emit)) []tuple.Pair {
	var c Collector
	join(rs, ss, eps, c.Emit)
	sort.Slice(c.Pairs, func(i, j int) bool {
		if c.Pairs[i].RID != c.Pairs[j].RID {
			return c.Pairs[i].RID < c.Pairs[j].RID
		}
		return c.Pairs[i].SID < c.Pairs[j].SID
	})
	return c.Pairs
}

func TestNestedLoopBasic(t *testing.T) {
	rs := mkTuples([]geom.Point{{X: 0, Y: 0}, {X: 5, Y: 5}}, 0)
	ss := mkTuples([]geom.Point{{X: 0.5, Y: 0}, {X: 100, Y: 100}}, 1000)
	got := pairsOf(rs, ss, 1.0, NestedLoop)
	if len(got) != 1 || got[0] != (tuple.Pair{RID: 0, SID: 1000}) {
		t.Fatalf("got %v, want [{0 1000}]", got)
	}
}

func TestExactEpsilonIncluded(t *testing.T) {
	rs := mkTuples([]geom.Point{{X: 0, Y: 0}}, 0)
	ss := mkTuples([]geom.Point{{X: 3, Y: 4}}, 1)
	for _, join := range []func(r, s []tuple.Tuple, eps float64, emit Emit){NestedLoop, PlaneSweep} {
		if got := pairsOf(rs, ss, 5.0, join); len(got) != 1 {
			t.Errorf("pair at distance exactly eps must be reported; got %v", got)
		}
		if got := pairsOf(rs, ss, 4.999999, join); len(got) != 0 {
			t.Errorf("pair above eps must not be reported; got %v", got)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	ss := mkTuples([]geom.Point{{X: 0, Y: 0}}, 0)
	var c Counter
	PlaneSweep(nil, ss, 1, c.Emit)
	PlaneSweep(ss, nil, 1, c.Emit)
	NestedLoop(nil, nil, 1, c.Emit)
	if c.N != 0 {
		t.Fatalf("joins with an empty side must be empty, got %d", c.N)
	}
}

func randomTuples(rng *rand.Rand, n int, extent float64, base int64) []tuple.Tuple {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	}
	return mkTuples(pts, base)
}

func TestPlaneSweepMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		nr, ns := rng.Intn(200), rng.Intn(200)
		eps := rng.Float64() * 3
		rs := randomTuples(rng, nr, 20, 0)
		ss := randomTuples(rng, ns, 20, 1_000_000)
		want := pairsOf(rs, ss, eps, NestedLoop)
		got := pairsOf(rs, ss, eps, PlaneSweep)
		if len(got) != len(want) {
			t.Fatalf("trial %d: plane sweep found %d pairs, oracle %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: pair %d mismatch: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestPlaneSweepDoesNotMutateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rs := randomTuples(rng, 100, 10, 0)
	ss := randomTuples(rng, 100, 10, 1000)
	rsCopy := append([]tuple.Tuple(nil), rs...)
	ssCopy := append([]tuple.Tuple(nil), ss...)
	var c Counter
	PlaneSweep(rs, ss, 0.5, c.Emit)
	for i := range rs {
		if rs[i].ID != rsCopy[i].ID || rs[i].Pt != rsCopy[i].Pt {
			t.Fatal("PlaneSweep reordered its R input")
		}
	}
	for i := range ss {
		if ss[i].ID != ssCopy[i].ID || ss[i].Pt != ssCopy[i].Pt {
			t.Fatal("PlaneSweep reordered its S input")
		}
	}
}

func TestCounterChecksumOrderIndependent(t *testing.T) {
	rs := mkTuples([]geom.Point{{X: 0, Y: 0}, {X: 0.1, Y: 0}}, 0)
	ss := mkTuples([]geom.Point{{X: 0, Y: 0.1}, {X: 0.1, Y: 0.1}}, 100)
	var a, b Counter
	NestedLoop(rs, ss, 1, a.Emit)
	// Same pairs, reversed iteration order.
	rev := []tuple.Tuple{rs[1], rs[0]}
	NestedLoop(rev, ss, 1, b.Emit)
	if a.N != b.N || a.Checksum != b.Checksum {
		t.Fatalf("checksum must be order independent: %d/%x vs %d/%x", a.N, a.Checksum, b.N, b.Checksum)
	}
}

func TestCounterChecksumDistinguishesPairs(t *testing.T) {
	var a, b Counter
	r0 := tuple.Tuple{ID: 1}
	s0 := tuple.Tuple{ID: 2}
	a.Emit(r0, s0)
	b.Emit(s0, r0) // swapped roles -> different pair
	if a.Checksum == b.Checksum {
		t.Fatal("checksum should distinguish (1,2) from (2,1)")
	}
}

func TestSweepSelfJoinStyle(t *testing.T) {
	// Joining a set with itself must report n + 2*closePairs results
	// (each point matches itself, and both orientations of close pairs).
	pts := []geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: 10, Y: 10}}
	ts := mkTuples(pts, 0)
	var c Counter
	PlaneSweep(ts, ts, 1, c.Emit)
	if c.N != 5 {
		t.Fatalf("self join count = %d, want 5", c.N)
	}
}

func TestQuickSweepAgainstOracle(t *testing.T) {
	type seedCase struct {
		Seed int64
	}
	f := func(sc seedCase) bool {
		rng := rand.New(rand.NewSource(sc.Seed))
		rs := randomTuples(rng, 30+rng.Intn(60), 5, 0)
		ss := randomTuples(rng, 30+rng.Intn(60), 5, 1000)
		eps := 0.1 + rng.Float64()
		var want, got Counter
		NestedLoop(rs, ss, eps, want.Emit)
		PlaneSweep(rs, ss, eps, got.Emit)
		return want.N == got.N && want.Checksum == got.Checksum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPlaneSweep10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rs := randomTuples(rng, 10_000, 100, 0)
	ss := randomTuples(rng, 10_000, 100, 1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c Counter
		PlaneSweep(rs, ss, 0.5, c.Emit)
	}
}

func BenchmarkNestedLoop1k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rs := randomTuples(rng, 1_000, 100, 0)
	ss := randomTuples(rng, 1_000, 100, 1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c Counter
		NestedLoop(rs, ss, 0.5, c.Emit)
	}
}

func TestPlaneSweepBestAxisMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	// Vertically elongated partition: best axis is y.
	mk := func(n int, base int64) []tuple.Tuple {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64() * 40}
		}
		return mkTuples(pts, base)
	}
	rs := mk(400, 0)
	ss := mk(400, 1_000_000)
	var want, got Counter
	NestedLoop(rs, ss, 0.5, want.Emit)
	PlaneSweepBestAxis(rs, ss, 0.5, func(r, s tuple.Tuple) {
		// The y sweep swaps coordinates internally; callers must still
		// observe the original points.
		if r.Pt != rs[r.ID].Pt || s.Pt != ss[s.ID-1_000_000].Pt {
			t.Fatalf("coordinates flipped in emit: %v, %v", r.Pt, s.Pt)
		}
		got.Emit(r, s)
	})
	if want.N != got.N || want.Checksum != got.Checksum {
		t.Fatalf("best-axis %d/%x, oracle %d/%x", got.N, got.Checksum, want.N, want.Checksum)
	}
	if sx, sy := spreadXY(rs, ss); sy <= sx {
		t.Fatal("test workload should be y-elongated")
	}
}

func TestSpreadXYSinglePass(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		rs := randomTuples(rng, rng.Intn(50), 30, 0)
		ss := randomTuples(rng, 1+rng.Intn(50), 30, 1000)
		sx, sy := spreadXY(rs, ss)
		// Oracle: per-axis min/max over the concatenation.
		all := append(append([]tuple.Tuple(nil), rs...), ss...)
		minX, maxX := all[0].Pt.X, all[0].Pt.X
		minY, maxY := all[0].Pt.Y, all[0].Pt.Y
		for _, p := range all {
			minX = min(minX, p.Pt.X)
			maxX = max(maxX, p.Pt.X)
			minY = min(minY, p.Pt.Y)
			maxY = max(maxY, p.Pt.Y)
		}
		if sx != maxX-minX || sy != maxY-minY {
			t.Fatalf("trial %d: spreadXY = (%v, %v), want (%v, %v)", trial, sx, sy, maxX-minX, maxY-minY)
		}
	}
}

func TestPlaneSweepBestAxisTinyInputs(t *testing.T) {
	// Below the nested-loop threshold the spread scan is skipped entirely;
	// results must still match the oracle, including the empty sides.
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 30; trial++ {
		rs := randomTuples(rng, rng.Intn(9), 2, 0)
		ss := randomTuples(rng, rng.Intn(9), 2, 1000)
		var want, got Counter
		NestedLoop(rs, ss, 0.8, want.Emit)
		PlaneSweepBestAxis(rs, ss, 0.8, got.Emit)
		if want.N != got.N || want.Checksum != got.Checksum {
			t.Fatalf("trial %d: tiny best-axis %d/%x, oracle %d/%x", trial, got.N, got.Checksum, want.N, want.Checksum)
		}
	}
}
