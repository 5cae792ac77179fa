package costmodel

import (
	"math/rand"
	"testing"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/sample"
	"spatialjoin/internal/tuple"
)

// fill draws 0..max points of each set uniformly in every ε-square
// (ε = 1) whose lower-left corner is in corners.
func fill(rng *rand.Rand, corners []geom.Point, max int) (rs, ss []tuple.Tuple) {
	var id int64
	for _, c := range corners {
		for _, ts := range []*[]tuple.Tuple{&rs, &ss} {
			for n := rng.Intn(max + 1); n > 0; n-- {
				*ts = append(*ts, tuple.Tuple{ID: id, Pt: geom.Point{X: c.X + rng.Float64(), Y: c.Y + rng.Float64()}})
				id++
			}
		}
	}
	return rs, ss
}

// squares returns the lower-left corners of the ε-squares of the 6×6
// world that keep selects.
func squares(keep func(x, y float64) bool) []geom.Point {
	var out []geom.Point
	for y := 0.0; y < 6; y++ {
		for x := 0.0; x < 6; x++ {
			if keep(x, y) {
				out = append(out, geom.Point{X: x, Y: y})
			}
		}
	}
	return out
}

// hotMiddleSets puts a hot cell between two neighbours that each push a
// different set into it under LPiB (501 R vs 500 S on one border, 500 R
// vs 501 S on the other): adaptive then grows both sides of the hot
// cell's product, universal replication only one, and the predicted
// shuffle of the three strategies is within 32 bytes.
func hotMiddleSets() (rs, ss []tuple.Tuple, bounds geom.Rect) {
	rng := rand.New(rand.NewSource(7))
	add := func(ts *[]tuple.Tuple, n int, x0 float64) {
		for i := 0; i < n; i++ {
			id := int64(len(rs) + len(ss))
			*ts = append(*ts, tuple.Tuple{ID: id, Pt: geom.Point{X: x0 + 0.1 + 0.8*rng.Float64(), Y: 1.1 + 0.8*rng.Float64()}})
		}
	}
	add(&rs, 1000, 4) // the hot cell's interior
	add(&ss, 1000, 4)
	add(&rs, 501, 2) // left neighbour, within ε of the hot cell
	add(&ss, 500, 2)
	add(&rs, 500, 6) // right neighbour, within ε of the hot cell
	add(&ss, 501, 6)
	return rs, ss, geom.Rect{MinX: 0, MinY: 0, MaxX: 9, MaxY: 3}
}

// atMost reports a <= b up to a relative 1e-12, the rounding slack of
// two float sums taken over different per-border terms.
func atMost(a, b float64) bool { return a <= b+1e-12*b }

// checkDominance asserts the invariant AutoPlanned rests on: on an LPiB
// graph, Adaptive predicts no more replication and no more shuffle than
// either universal choice. LPiB gives each border to the set with fewer
// sampled candidates there, Adaptive counts exactly that set on it, and
// Universal counts one set on every border: Σ min ≤ min Σ.
func checkDominance(t *testing.T, name string, st *grid.Stats, fraction float64, tupleBytes int) (ad, uniR, uniS Prediction) {
	t.Helper()
	ad = Adaptive(agreements.Build(st, agreements.LPiB), st, fraction, tupleBytes)
	uniR = Universal(st, tuple.R, fraction, tupleBytes)
	uniS = Universal(st, tuple.S, fraction, tupleBytes)
	for _, u := range []Prediction{uniR, uniS} {
		if !atMost(ad.Replicated, u.Replicated) || !atMost(ad.ShuffledBytes, u.ShuffledBytes) {
			t.Fatalf("%s: adaptive predicts %v replicas / %v bytes, above UNI(R) %v / %v or UNI(S) %v / %v",
				name, ad.Replicated, ad.ShuffledBytes, uniR.Replicated, uniR.ShuffledBytes, uniS.Replicated, uniS.ShuffledBytes)
		}
	}
	return ad, uniR, uniS
}

func statsOf(g *grid.Grid, rs, ss []tuple.Tuple) *grid.Stats {
	st := grid.NewStats(g)
	st.AddAll(tuple.R, rs)
	st.AddAll(tuple.S, ss)
	return st
}

// TestAdaptiveNeverAboveUniversal checks the dominance invariant over
// random sampled statistics of two shapes — a 3×3 grid of 2ε cells with
// 0–40 points per ε-square and set, and one quartet of 3ε cells with
// 0–60 points per corner and strip region and set — at several sample
// fractions and tuple sizes, and on the near-tie of hotMiddleSets.
func TestAdaptiveNeverAboveUniversal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fractions := []float64{1, 0.5, sample.DefaultFraction}
	world := geom.Rect{MinX: 0, MinY: 0, MaxX: 6, MaxY: 6}
	shapes := []struct {
		name    string
		g       *grid.Grid
		corners []geom.Point
		max     int
	}{
		// A 3×3 grid of 2ε cells, every ε-square filled.
		{"3x3", grid.New(world, 1, 2), squares(func(x, y float64) bool { return true }), 40},
		// A 2×2 grid of 3ε cells: only the ε-wide corner and strip
		// squares along the edges of its one inner quartet.
		{"quartet", grid.New(world, 1, 3), squares(func(x, y float64) bool { return x == 2 || x == 3 || y == 2 || y == 3 }), 60},
	}
	for _, sh := range shapes {
		for i := 0; i < 2000; i++ {
			rs, ss := fill(rng, sh.corners, sh.max)
			checkDominance(t, sh.name, statsOf(sh.g, rs, ss), fractions[i%len(fractions)], 24+8*rng.Intn(8))
		}
	}

	rs, ss, bounds := hotMiddleSets()
	ad, uniR, uniS := checkDominance(t, "hot middle", statsOf(grid.New(bounds, 1, 3), rs, ss), 1, 24)
	if gap := min(uniR.ShuffledBytes, uniS.ShuffledBytes) - ad.ShuffledBytes; gap > 32 {
		t.Errorf("hot middle is no near-tie: adaptive %v bytes, %v below the better universal", ad.ShuffledBytes, gap)
	}
}

// TestUniversalPredictsCheapSideWhenLopsided: with a tiny R against a
// huge S, replicating R is predicted far cheaper than replicating S.
func TestUniversalPredictsCheapSideWhenLopsided(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	uniform := func(n int, base int64) []tuple.Tuple {
		out := make([]tuple.Tuple, n)
		for i := range out {
			out[i] = tuple.Tuple{ID: base + int64(i), Pt: geom.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40}}
		}
		return out
	}
	rs, ss := uniform(200, 0), uniform(50_000, 1_000_000)
	g := grid.New(geom.Rect{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40}, 1, 2)
	st := statsOf(g, sample.Bernoulli(rs, 0.5, 1), sample.Bernoulli(ss, 0.5, 2))
	if r, s := Universal(st, tuple.R, 0.5, 24), Universal(st, tuple.S, 0.5, 24); r.Replicated >= s.Replicated {
		t.Fatalf("UNI(R) predicts %v replicas, UNI(S) %v: replicating the tiny R must be cheaper", r.Replicated, s.Replicated)
	}
}
