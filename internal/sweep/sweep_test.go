package sweep

import (
	"math/rand"
	"sort"
	"testing"

	"spatialjoin/internal/colsweep"
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
	if got := pairsOf(rs, ss, 5.0, NestedLoop); len(got) != 1 {
		t.Errorf("pair at distance exactly eps must be reported; got %v", got)
	}
	if got := pairsOf(rs, ss, 4.999999, NestedLoop); len(got) != 0 {
		t.Errorf("pair above eps must not be reported; got %v", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	ss := mkTuples([]geom.Point{{X: 0, Y: 0}}, 0)
	var c Counter
	NestedLoop(nil, ss, 1, c.Emit)
	NestedLoop(ss, nil, 1, c.Emit)
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
	NestedLoop(ts, ts, 1, c.Emit)
	if c.N != 5 {
		t.Fatalf("self join count = %d, want 5", c.N)
	}
}

// planeSweep runs the engines' plane sweep, colsweep.JoinCell, which
// packs both sides into lanes, sorts them along the wider axis and
// sweeps. It returns the sink's pair count and checksum, which match a
// Counter's for the same pair set.
func planeSweep(rs, ss []tuple.Tuple, eps float64) (n int64, checksum uint64) {
	b := colsweep.Get()
	defer colsweep.Put(b)
	out := b.Sink(false, false)
	colsweep.JoinCell(b, rs, ss, eps, out)
	return out.N, out.Checksum
}

func TestPlaneSweepDoesNotMutateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rs := randomTuples(rng, 100, 10, 0)
	ss := randomTuples(rng, 100, 10, 1000)
	rsCopy := append([]tuple.Tuple(nil), rs...)
	ssCopy := append([]tuple.Tuple(nil), ss...)
	planeSweep(rs, ss, 0.5)
	for i := range rs {
		if rs[i].ID != rsCopy[i].ID || rs[i].Pt != rsCopy[i].Pt {
			t.Fatal("the plane sweep reordered its R input")
		}
	}
	for i := range ss {
		if ss[i].ID != ssCopy[i].ID || ss[i].Pt != ssCopy[i].Pt {
			t.Fatal("the plane sweep reordered its S input")
		}
	}
}

func TestPlaneSweepBestAxisMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	// Vertically elongated partition: the best axis is y.
	mk := func(n int, base int64) []tuple.Tuple {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64() * 40}
		}
		return mkTuples(pts, base)
	}
	rs := mk(400, 0)
	ss := mk(400, 1_000_000)
	var want Counter
	NestedLoop(rs, ss, 0.5, want.Emit)
	n, sum := planeSweep(rs, ss, 0.5)
	if want.N != n || want.Checksum != sum {
		t.Fatalf("best-axis %d/%x, oracle %d/%x", n, sum, want.N, want.Checksum)
	}
	var c colsweep.Cols
	if sx, sy := c.Pack(append(append([]tuple.Tuple(nil), rs...), ss...)); sy <= sx {
		t.Fatal("test workload should be y-elongated")
	}
	if want.N == 0 {
		t.Fatal("test workload has no pairs")
	}
}

func TestPlaneSweepBestAxisTinyInputs(t *testing.T) {
	// Tiny cells and cells with an empty side must still match the oracle.
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 30; trial++ {
		rs := randomTuples(rng, rng.Intn(9), 2, 0)
		ss := randomTuples(rng, rng.Intn(9), 2, 1000)
		var want Counter
		NestedLoop(rs, ss, 0.8, want.Emit)
		if n, sum := planeSweep(rs, ss, 0.8); want.N != n || want.Checksum != sum {
			t.Fatalf("trial %d: tiny best-axis %d/%x, oracle %d/%x", trial, n, sum, want.N, want.Checksum)
		}
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
