package spatialjoin

import (
	"math"
	"math/rand"
	"testing"

	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/twolayer"
)

func randomMixedObjects(rng *rand.Rand, n int, base int64) []Object {
	out := make([]Object, n)
	for i := range out {
		anchor := Point{X: rng.Float64() * 30, Y: rng.Float64() * 30}
		id := base + int64(i)
		switch rng.Intn(3) {
		case 0:
			out[i] = NewPointObject(id, anchor)
		case 1:
			out[i] = NewPolyline(id, []Point{anchor, {X: anchor.X + rng.Float64(), Y: anchor.Y + rng.Float64()}})
		default:
			w, h := 0.2+rng.Float64(), 0.2+rng.Float64()
			out[i] = NewPolygon(id, []Point{
				anchor, {X: anchor.X + w, Y: anchor.Y},
				{X: anchor.X + w, Y: anchor.Y + h}, {X: anchor.X, Y: anchor.Y + h},
			})
		}
	}
	return out
}

func TestJoinObjectsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rs := randomMixedObjects(rng, 500, 0)
	ss := randomMixedObjects(rng, 500, 1_000_000)
	const eps = 0.8

	var want []Pair
	for i := range rs {
		for j := range ss {
			if ObjectDist(&rs[i], &ss[j]) <= eps {
				want = append(want, Pair{RID: rs[i].ID, SID: ss[j].ID})
			}
		}
	}
	sortPairs(want)

	for _, algo := range []Algorithm{AdaptiveLPiB, AdaptiveDIFF, PBSMUniR, PBSMUniS} {
		rep, err := JoinObjects(rs, ss, Options{Eps: eps, Algorithm: algo, Collect: true, Workers: 3})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		got := append([]Pair(nil), rep.Pairs...)
		sortPairs(got)
		if len(got) != len(want) {
			t.Fatalf("%v: got %d pairs, want %d", algo, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: pair %d: %v vs %v", algo, i, got[i], want[i])
			}
		}
	}
}

func TestJoinObjectsReportFields(t *testing.T) {
	rs := []Object{NewPolyline(1, []Point{{X: 0, Y: 0}, {X: 3, Y: 4}})}
	ss := []Object{NewPointObject(2, Point{X: 1, Y: 1})}
	rep, err := JoinObjects(rs, ss, Options{Eps: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxHalfDiag != 2.5 {
		t.Fatalf("max half diag = %v, want 2.5", rep.MaxHalfDiag)
	}
	if rep.EffectiveEps != 6 {
		t.Fatalf("effective eps = %v, want 6", rep.EffectiveEps)
	}
	if rep.Results != 1 {
		t.Fatalf("results = %d, want 1 (point on the segment's eps-band)", rep.Results)
	}
}

func TestJoinObjectsValidation(t *testing.T) {
	if _, err := JoinObjects(nil, nil, Options{Eps: 0}); err == nil {
		t.Error("eps=0 must fail")
	}
	bad := []Object{{Kind: 1, Verts: []Point{{X: 0, Y: 0}}}} // polyline with 1 vertex
	if _, err := JoinObjects(bad, nil, Options{Eps: 1}); err == nil {
		t.Error("invalid object must fail")
	}
}

// TestNonFiniteObjectFailsClosed checks that one object with a NaN or
// +Inf vertex fails the whole join with an error: its MBR would poison
// tile assignment and silently drop other objects' pairs.
func TestNonFiniteObjectFailsClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rs := randomMixedObjects(rng, 300, 0)
	ss := randomMixedObjects(rng, 300, 1_000_000)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		poisoned := append(append([]Object(nil), rs...),
			NewPolygon(-1, []Point{{X: 1, Y: 1}, {X: bad, Y: 2}, {X: 2, Y: 2}}))
		if _, err := JoinObjects(poisoned, ss, Options{Eps: 0.5}); err == nil {
			t.Errorf("JoinObjects with a %v vertex: no error", bad)
		}
		for _, pred := range []extgeom.Predicate{extgeom.Intersects, extgeom.WithinDistance} {
			cfg := twolayer.Config{R: poisoned, S: ss, Pred: pred, Eps: 0.5, Tiles: 8}
			if _, err := twolayer.Join(cfg); err == nil {
				t.Errorf("twolayer.Join %v with a %v vertex: no error", pred, bad)
			}
		}
	}
}

func TestObjectDistFacade(t *testing.T) {
	a := NewPolygon(1, []Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2, Y: 2}, {X: 0, Y: 2}})
	b := NewPointObject(2, Point{X: 5, Y: 2})
	if d := ObjectDist(&a, &b); d != 3 {
		t.Fatalf("dist = %v, want 3", d)
	}
}
