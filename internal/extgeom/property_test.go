package extgeom

import (
	"math"
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
)

// ---- Exact integer oracle for segment intersection -------------------
//
// Segments with small integer coordinates admit an exact intersection
// decision in int64 arithmetic (orientations are products of values
// ≤ 2·coord², far from overflow). The float implementation must agree on
// every such input, including the boundary cases the paper's class-based
// partitioning leans on: collinear touching segments, vertex-on-edge
// contact, shared endpoints, degenerate (zero-length) segments.

type ipt struct{ x, y int64 }

func iorient(a, b, c ipt) int64 {
	return (b.x-a.x)*(c.y-a.y) - (b.y-a.y)*(c.x-a.x)
}

func ion(a, b, p ipt) bool { // p collinear with ab: is p within the box?
	return min64(a.x, b.x) <= p.x && p.x <= max64(a.x, b.x) &&
		min64(a.y, b.y) <= p.y && p.y <= max64(a.y, b.y)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func intersectOracle(a1, a2, b1, b2 ipt) bool {
	d1 := iorient(b1, b2, a1)
	d2 := iorient(b1, b2, a2)
	d3 := iorient(a1, a2, b1)
	d4 := iorient(a1, a2, b2)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	return (d1 == 0 && ion(b1, b2, a1)) ||
		(d2 == 0 && ion(b1, b2, a2)) ||
		(d3 == 0 && ion(a1, a2, b1)) ||
		(d4 == 0 && ion(a1, a2, b2))
}

func TestSegmentsIntersectMatchesExactOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	coord := func() int64 { return int64(rng.Intn(13)) - 6 }
	for i := 0; i < 200_000; i++ {
		a1 := ipt{coord(), coord()}
		a2 := ipt{coord(), coord()}
		b1 := ipt{coord(), coord()}
		b2 := ipt{coord(), coord()}
		want := intersectOracle(a1, a2, b1, b2)
		got := SegmentsIntersect(
			Segment{A: geom.Point{X: float64(a1.x), Y: float64(a1.y)}, B: geom.Point{X: float64(a2.x), Y: float64(a2.y)}},
			Segment{A: geom.Point{X: float64(b1.x), Y: float64(b1.y)}, B: geom.Point{X: float64(b2.x), Y: float64(b2.y)}},
		)
		if got != want {
			t.Fatalf("SegmentsIntersect(%v-%v, %v-%v) = %v, exact oracle says %v", a1, a2, b1, b2, got, want)
		}
	}
}

func TestSegmentsIntersectBoundaryCases(t *testing.T) {
	seg := func(ax, ay, bx, by float64) Segment {
		return Segment{A: geom.Point{X: ax, Y: ay}, B: geom.Point{X: bx, Y: by}}
	}
	cases := []struct {
		name string
		a, b Segment
		want bool
	}{
		{"collinear overlapping", seg(0, 0, 10, 0), seg(2, 0, 5, 0), true},
		{"collinear touching at endpoint", seg(0, 0, 1, 0), seg(1, 0, 2, 0), true},
		{"collinear disjoint", seg(0, 0, 1, 0), seg(2, 0, 3, 0), false},
		{"vertex on edge", seg(0, 0, 4, 0), seg(2, 0, 2, 5), true},
		{"shared endpoint only", seg(0, 0, 1, 1), seg(1, 1, 2, 0), true},
		{"degenerate on segment", seg(0, 0, 4, 4), seg(2, 2, 2, 2), true},
		{"degenerate off segment", seg(0, 0, 4, 4), seg(2, 3, 2, 3), false},
		{"both degenerate equal", seg(1, 1, 1, 1), seg(1, 1, 1, 1), true},
		{"both degenerate distinct", seg(1, 1, 1, 1), seg(2, 2, 2, 2), false},
		{"proper cross", seg(0, 0, 2, 2), seg(0, 2, 2, 0), true},
		{"parallel apart", seg(0, 0, 4, 0), seg(0, 1, 4, 1), false},
	}
	for _, c := range cases {
		if got := SegmentsIntersect(c.a, c.b); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// ---- Dense-sampling brute force for distances ------------------------

// samplePoints returns points densely sampled along the object's
// boundary (a point object yields its single vertex).
func samplePoints(o *Object, perSegment int) []geom.Point {
	out := []geom.Point{}
	out = append(out, o.Verts...)
	for k := 0; k < o.numSegs(); k++ {
		for i := 1; i < perSegment; i++ {
			out = append(out, interp(o.seg(k), float64(i)/float64(perSegment)))
		}
	}
	return out
}

func sqDistSampled(a, b *Object, perSegment int) float64 {
	pa := samplePoints(a, perSegment)
	pb := samplePoints(b, perSegment)
	best := math.Inf(1)
	for _, p := range pa {
		for _, q := range pb {
			if d := p.SqDist(q); d < best {
				best = d
			}
		}
	}
	return best
}

func TestSqDistPointSegmentVsSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const samples = 4000
	for i := 0; i < 500; i++ {
		p := geom.Point{X: rng.Float64()*20 - 10, Y: rng.Float64()*20 - 10}
		s := Segment{
			A: geom.Point{X: rng.Float64()*20 - 10, Y: rng.Float64()*20 - 10},
			B: geom.Point{X: rng.Float64()*20 - 10, Y: rng.Float64()*20 - 10},
		}
		got := SqDistPointSegment(p, s)
		best := math.Inf(1)
		for k := 0; k <= samples; k++ {
			q := interp(s, float64(k)/samples)
			if d := p.SqDist(q); d < best {
				best = d
			}
		}
		// The exact distance lower-bounds every sample, and the densest
		// sample comes within one step of the true minimum.
		if got > best+1e-9 {
			t.Fatalf("SqDistPointSegment=%v exceeds sampled minimum %v (p=%v s=%v)", got, best, p, s)
		}
		if best-got > 1e-4 {
			t.Fatalf("SqDistPointSegment=%v far below sampled minimum %v (p=%v s=%v)", got, best, p, s)
		}
	}
}

// randomSimplePolygon builds a star-shaped (hence simple) polygon around
// a center: vertices at sorted angles with varying radii.
func randomSimplePolygon(rng *rand.Rand, id int64, cx, cy, rmax float64) Object {
	n := 3 + rng.Intn(6)
	angles := make([]float64, n)
	for i := range angles {
		angles[i] = rng.Float64() * 2 * math.Pi
	}
	for i := 1; i < n; i++ { // insertion sort
		for j := i; j > 0 && angles[j] < angles[j-1]; j-- {
			angles[j], angles[j-1] = angles[j-1], angles[j]
		}
	}
	verts := make([]geom.Point, n)
	for i, a := range angles {
		r := rmax * (0.3 + 0.7*rng.Float64())
		verts[i] = geom.Point{X: cx + r*math.Cos(a), Y: cy + r*math.Sin(a)}
	}
	return NewPolygon(id, verts)
}

func randomObject(rng *rand.Rand, id int64, cx, cy, rmax float64) Object {
	switch rng.Intn(3) {
	case 0:
		return NewPoint(id, geom.Point{X: cx, Y: cy})
	case 1:
		n := 2 + rng.Intn(4)
		verts := make([]geom.Point, n)
		for i := range verts {
			verts[i] = geom.Point{X: cx + (rng.Float64()*2-1)*rmax, Y: cy + (rng.Float64()*2-1)*rmax}
		}
		return NewPolyline(id, verts)
	default:
		return randomSimplePolygon(rng, id, cx, cy, rmax)
	}
}

func TestSqDistObjectsVsSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		a := randomObject(rng, 1, rng.Float64()*10, rng.Float64()*10, 1+rng.Float64()*2)
		b := randomObject(rng, 2, rng.Float64()*10, rng.Float64()*10, 1+rng.Float64()*2)
		got := SqDist(&a, &b)
		sampled := sqDistSampled(&a, &b, 60)
		// Exact distance never exceeds any boundary sample distance.
		if got > sampled+1e-9 {
			t.Fatalf("case %d: SqDist=%v exceeds sampled boundary distance %v\na=%+v\nb=%+v", i, got, sampled, a, b)
		}
		// When the exact distance is zero, the objects overlap: either
		// boundaries come close, or one contains the other's sample.
		if got == 0 {
			continue
		}
		// Disjoint objects: the minimum boundary distance is the object
		// distance, so dense sampling must come close to it.
		if sampled-got > 0.02*math.Max(1, sampled) {
			t.Fatalf("case %d: SqDist=%v far below sampled %v\na=%+v\nb=%+v", i, got, sampled, a, b)
		}
	}
}

func TestContainsObjectVsSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		a := randomSimplePolygon(rng, 1, 5, 5, 4)
		b := randomObject(rng, 2, 4+rng.Float64()*2, 4+rng.Float64()*2, 0.2+rng.Float64()*3)
		got := Eval(Contains, &a, &b, 0)
		// Sample b densely; containment requires every sample inside a.
		allIn := true
		for _, p := range samplePoints(&b, 50) {
			if !a.ContainsPoint(p) {
				allIn = false
				break
			}
		}
		if got && !allIn {
			t.Fatalf("case %d: Eval(Contains)=true but a sampled point of b is outside a\na=%+v\nb=%+v", i, a, b)
		}
		if !got && allIn {
			// Contains may only reject a fully-sampled-inside b
			// when b grazes the boundary (samples on the edge): verify
			// there is at least a near-boundary sample before failing.
			grazing := false
			for _, p := range samplePoints(&b, 50) {
				d := math.Inf(1)
				for k := 0; k < a.numSegs(); k++ {
					if v := SqDistPointSegment(p, a.seg(k)); v < d {
						d = v
					}
				}
				if d < 1e-12 {
					grazing = true
					break
				}
			}
			if !grazing {
				t.Fatalf("case %d: Eval(Contains)=false but every sampled point of b is strictly inside a\na=%+v\nb=%+v", i, a, b)
			}
		}
	}
}

func TestContainsObjectCases(t *testing.T) {
	square := NewPolygon(1, []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10}})
	// An L-shaped (non-convex) polygon: the notch occupies the top-right.
	ell := NewPolygon(2, []geom.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 5}, {X: 5, Y: 5}, {X: 5, Y: 10}, {X: 0, Y: 10},
	})
	cases := []struct {
		name string
		a, b Object
		want bool
	}{
		{"inner square", square, NewPolygon(3, []geom.Point{{X: 2, Y: 2}, {X: 8, Y: 2}, {X: 8, Y: 8}, {X: 2, Y: 8}}), true},
		{"touching edge from inside", square, NewPolygon(3, []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 5, Y: 5}}), true},
		{"sticking out", square, NewPolygon(3, []geom.Point{{X: 5, Y: 5}, {X: 15, Y: 5}, {X: 15, Y: 8}}), false},
		{"point inside", square, NewPoint(3, geom.Point{X: 5, Y: 5}), true},
		{"point on boundary", square, NewPoint(3, geom.Point{X: 0, Y: 5}), true},
		{"point outside", square, NewPoint(3, geom.Point{X: -1, Y: 5}), false},
		{"polyline inside", square, NewPolyline(3, []geom.Point{{X: 1, Y: 1}, {X: 9, Y: 9}}), true},
		{"polyline crossing out and back", square, NewPolyline(3, []geom.Point{{X: 5, Y: 5}, {X: 12, Y: 5}, {X: 5, Y: 6}}), false},
		// Vertices inside the L, but the connecting edge cuts across the
		// notch (outside the polygon) — the case vertex checks alone miss.
		{"edge across the notch", ell, NewPolyline(3, []geom.Point{{X: 9, Y: 4}, {X: 4, Y: 9}}), false},
		{"edge along boundary", square, NewPolyline(3, []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}), true},
		{"identical polygon", square, NewPolygon(3, []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10}}), true},
		{"non-polygon container", NewPolyline(4, []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}), NewPoint(3, geom.Point{X: 0, Y: 0}), false},
		{"point contains equal point", NewPoint(5, geom.Point{X: 1, Y: 2}), NewPoint(6, geom.Point{X: 1, Y: 2}), true},
	}
	for _, c := range cases {
		if got := Eval(Contains, &c.a, &c.b, 0); got != c.want {
			t.Errorf("%s: Eval(Contains) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestIntersectsObjectsCases(t *testing.T) {
	square := NewPolygon(1, []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10}})
	cases := []struct {
		name string
		a, b Object
		want bool
	}{
		{"overlap", square, NewPolygon(2, []geom.Point{{X: 5, Y: 5}, {X: 15, Y: 5}, {X: 15, Y: 15}, {X: 5, Y: 15}}), true},
		{"contained", square, NewPolygon(2, []geom.Point{{X: 2, Y: 2}, {X: 3, Y: 2}, {X: 3, Y: 3}}), true},
		{"touching corner", square, NewPolygon(2, []geom.Point{{X: 10, Y: 10}, {X: 12, Y: 10}, {X: 12, Y: 12}}), true},
		{"disjoint", square, NewPolygon(2, []geom.Point{{X: 20, Y: 20}, {X: 22, Y: 20}, {X: 22, Y: 22}}), false},
		{"mbr overlaps but objects do not", NewPolyline(3, []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 10}}), NewPolyline(4, []geom.Point{{X: 9, Y: 0}, {X: 10, Y: 1}}), false},
		{"point in polygon", square, NewPoint(5, geom.Point{X: 1, Y: 1}), true},
	}
	for _, c := range cases {
		if got := Eval(Intersects, &c.a, &c.b, 0); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
		if got := Eval(Intersects, &c.b, &c.a, 0); got != c.want {
			t.Errorf("%s (flipped): got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestObjectWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		o := randomObject(rng, int64(i), rng.Float64()*100, rng.Float64()*100, 1+rng.Float64()*5)
		enc := AppendObject(nil, &o)
		if len(enc) != ObjectWireSize(&o) {
			t.Fatalf("encoded %d bytes, ObjectWireSize says %d", len(enc), ObjectWireSize(&o))
		}
		dec, err := DecodeObject(o.ID, enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if dec.Kind != o.Kind || dec.ID != o.ID || len(dec.Verts) != len(o.Verts) {
			t.Fatalf("roundtrip mismatch: %+v vs %+v", dec, o)
		}
		for j := range o.Verts {
			if dec.Verts[j] != o.Verts[j] {
				t.Fatalf("vertex %d mismatch", j)
			}
		}
		wantB := o.Bounds()
		_, gotB, _, err := DecodeObjectInto(nil, o.ID, enc)
		if err != nil {
			t.Fatalf("decode into: %v", err)
		}
		if gotB != wantB {
			t.Fatalf("bounds mismatch: %v vs %v", gotB, wantB)
		}
	}
	// Truncated and hostile payloads error instead of panicking.
	o := NewPolyline(1, []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}})
	enc := AppendObject(nil, &o)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeObject(1, enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	if _, err := DecodeObject(1, []byte{9, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown kind decoded without error")
	}
}
