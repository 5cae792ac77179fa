package extjoin

import (
	"math/rand"
	"sort"
	"testing"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/tuple"
)

// randomObjects generates a clustered mix of points, polylines and
// polygons with extent up to maxExtent.
func randomObjects(rng *rand.Rand, n int, base int64, maxExtent float64) []extgeom.Object {
	centers := []geom.Point{{X: 15, Y: 15}, {X: 40, Y: 30}, {X: 25, Y: 45}}
	out := make([]extgeom.Object, n)
	for i := range out {
		c := centers[rng.Intn(len(centers))]
		anchor := geom.Point{X: c.X + rng.NormFloat64()*6, Y: c.Y + rng.NormFloat64()*6}
		id := base + int64(i)
		switch rng.Intn(3) {
		case 0:
			out[i] = extgeom.NewPoint(id, anchor)
		case 1:
			nv := 2 + rng.Intn(4)
			verts := make([]geom.Point, nv)
			for v := range verts {
				verts[v] = geom.Point{
					X: anchor.X + rng.Float64()*maxExtent,
					Y: anchor.Y + rng.Float64()*maxExtent,
				}
			}
			out[i] = extgeom.NewPolyline(id, verts)
		default:
			// A small convex-ish quad.
			w := rng.Float64() * maxExtent
			h := rng.Float64() * maxExtent
			out[i] = extgeom.NewPolygon(id, []geom.Point{
				anchor,
				{X: anchor.X + w, Y: anchor.Y},
				{X: anchor.X + w, Y: anchor.Y + h},
				{X: anchor.X, Y: anchor.Y + h},
			})
		}
	}
	return out
}

func oracleObjects(rs, ss []extgeom.Object, eps float64) []tuple.Pair {
	var out []tuple.Pair
	for i := range rs {
		for j := range ss {
			if extgeom.WithinDist(&rs[i], &ss[j], eps) {
				out = append(out, tuple.Pair{RID: rs[i].ID, SID: ss[j].ID})
			}
		}
	}
	sortPairs(out)
	return out
}

func sortPairs(ps []tuple.Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].RID != ps[j].RID {
			return ps[i].RID < ps[j].RID
		}
		return ps[i].SID < ps[j].SID
	})
}

func TestExtendedJoinMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		rs := randomObjects(rng, 800, 0, 2)
		ss := randomObjects(rng, 800, 1_000_000, 2)
		eps := 0.5 + rng.Float64()
		want := oracleObjects(rs, ss, eps)

		for _, strat := range []agreements.Policy{agreements.LPiB, agreements.DIFF, agreements.UniR, agreements.UniS} {
			res, err := Join(rs, ss, Config{
				Eps: eps, Policy: strat, Workers: 4, Collect: true, Seed: int64(trial),
			})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, strat, err)
			}
			got := append([]tuple.Pair(nil), res.Pairs...)
			sortPairs(got)
			if len(got) != len(want) {
				t.Fatalf("trial %d %v: got %d pairs, want %d (eps=%v, epsE=%v)",
					trial, strat, len(got), len(want), eps, res.EffectiveEps)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d %v: pair %d: %v vs %v", trial, strat, i, got[i], want[i])
				}
			}
		}
	}
}

func TestEffectiveEpsInflation(t *testing.T) {
	rs := []extgeom.Object{extgeom.NewPolyline(1, []geom.Point{{X: 0, Y: 0}, {X: 6, Y: 8}})} // half diag 5
	ss := []extgeom.Object{extgeom.NewPoint(2, geom.Point{X: 20, Y: 20})}
	res, err := Join(rs, ss, Config{Eps: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxHalfDiag != 5 {
		t.Fatalf("max half diag = %v, want 5", res.MaxHalfDiag)
	}
	if res.EffectiveEps != 11 {
		t.Fatalf("effective eps = %v, want 1 + 2*5 = 11", res.EffectiveEps)
	}
}

func TestFatObjectsNearThreshold(t *testing.T) {
	// Two long polylines whose closest approach is exactly at eps, with
	// centres far apart: only the inflated threshold finds them.
	rs := []extgeom.Object{extgeom.NewPolyline(1, []geom.Point{{X: 0, Y: 0}, {X: 0, Y: 30}})}
	ss := []extgeom.Object{extgeom.NewPolyline(2, []geom.Point{{X: 2, Y: 30}, {X: 2, Y: 60}})}
	// Closest points: (0,30) and (2,30): distance 2.
	res, err := Join(rs, ss, Config{Eps: 2, Workers: 1, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results != 1 {
		t.Fatalf("results = %d, want 1", res.Results)
	}
	res, err = Join(rs, ss, Config{Eps: 1.9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results != 0 {
		t.Fatalf("results below threshold = %d, want 0", res.Results)
	}
}

func TestAdaptiveExtendedReplicatesLess(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Skew the two sets into different regions.
	rs := make([]extgeom.Object, 0, 4000)
	ss := make([]extgeom.Object, 0, 4000)
	for i := 0; i < 4000; i++ {
		a := geom.Point{X: 10 + rng.NormFloat64()*5, Y: 25 + rng.NormFloat64()*12}
		rs = append(rs, extgeom.NewPolyline(int64(i), []geom.Point{a, {X: a.X + 0.3, Y: a.Y + 0.3}}))
		b := geom.Point{X: 40 + rng.NormFloat64()*5, Y: 25 + rng.NormFloat64()*12}
		ss = append(ss, extgeom.NewPolyline(int64(i+1_000_000), []geom.Point{b, {X: b.X + 0.3, Y: b.Y + 0.3}}))
	}
	cfgBase := Config{Eps: 0.5, Workers: 4, SampleFraction: 0.3}
	cfgA := cfgBase
	cfgA.Policy = agreements.LPiB
	adaptive, err := Join(rs, ss, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgR := cfgBase
	cfgR.Policy = agreements.UniR
	uniR, err := Join(rs, ss, cfgR)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Replicated() >= uniR.Replicated() {
		t.Fatalf("adaptive replicated %d >= universal %d", adaptive.Replicated(), uniR.Replicated())
	}
	if adaptive.Results != uniR.Results || adaptive.Checksum != uniR.Checksum {
		t.Fatalf("strategies disagree: %d vs %d", adaptive.Results, uniR.Results)
	}
}

func TestValidationErrors(t *testing.T) {
	good := []extgeom.Object{extgeom.NewPoint(1, geom.Point{})}
	if _, err := Join(good, good, Config{Eps: 0}); err == nil {
		t.Error("eps=0 must fail")
	}
	bad := []extgeom.Object{{Kind: extgeom.KindPolygon, Verts: make([]geom.Point, 2)}}
	if _, err := Join(bad, good, Config{Eps: 1}); err == nil {
		t.Error("invalid R object must fail")
	}
	if _, err := Join(good, bad, Config{Eps: 1}); err == nil {
		t.Error("invalid S object must fail")
	}
	if _, err := Join(nil, nil, Config{Eps: 1}); err != nil {
		t.Errorf("empty join should succeed: %v", err)
	}
}

func TestObjectBytesAccounted(t *testing.T) {
	// A 5-vertex polyline must shuffle more bytes than a point.
	pt := []extgeom.Object{extgeom.NewPoint(1, geom.Point{X: 5, Y: 5})}
	line := []extgeom.Object{extgeom.NewPolyline(1, []geom.Point{
		{X: 5, Y: 5}, {X: 5.1, Y: 5}, {X: 5.2, Y: 5}, {X: 5.3, Y: 5}, {X: 5.4, Y: 5},
	})}
	other := []extgeom.Object{extgeom.NewPoint(2, geom.Point{X: 6, Y: 6})}
	small, err := Join(pt, other, Config{Eps: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Join(line, other, Config{Eps: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if big.ShuffledBytes <= small.ShuffledBytes {
		t.Fatalf("polyline shuffled %d <= point %d", big.ShuffledBytes, small.ShuffledBytes)
	}
}
