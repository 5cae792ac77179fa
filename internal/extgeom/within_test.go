package extgeom

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialjoin/internal/geom"
)

// ---- The oracle: the unbounded, unpruned distance --------------------

// refSegments materialises the object's segments the way the distance
// routine did before it indexed them in place.
func refSegments(o *Object) []Segment {
	var out []Segment
	n := len(o.Verts)
	for i := 0; i+1 < n; i++ {
		out = append(out, Segment{A: o.Verts[i], B: o.Verts[i+1]})
	}
	if o.Kind == KindPolygon && n >= 3 {
		out = append(out, Segment{A: o.Verts[n-1], B: o.Verts[0]})
	}
	return out
}

// refContainsPoint is ContainsPoint with no shortcut: every edge is
// probed for boundary contact, then the ray is cast.
func refContainsPoint(o *Object, p geom.Point) bool {
	if o.Kind != KindPolygon {
		return false
	}
	for _, s := range refSegments(o) {
		if SqDistPointSegment(p, s) == 0 {
			return true
		}
	}
	inside := false
	n := len(o.Verts)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		vi, vj := o.Verts[i], o.Verts[j]
		if (vi.Y > p.Y) != (vj.Y > p.Y) &&
			p.X < (vj.X-vi.X)*(p.Y-vi.Y)/(vj.Y-vi.Y)+vi.X {
			inside = !inside
		}
	}
	return inside
}

// refSqDist is the full minimum over every segment pair: no threshold,
// no early exit, no bounding-box pruning.
func refSqDist(a, b *Object) float64 {
	if a.Kind == KindPoint && b.Kind == KindPoint {
		return a.Verts[0].SqDist(b.Verts[0])
	}
	if refContainsPoint(a, b.Verts[0]) || refContainsPoint(b, a.Verts[0]) {
		return 0
	}
	aSegs, bSegs := refSegments(a), refSegments(b)
	best := math.Inf(1)
	switch {
	case len(aSegs) == 0 && len(bSegs) == 0:
		return a.Verts[0].SqDist(b.Verts[0])
	case len(aSegs) == 0:
		for _, s := range bSegs {
			best = math.Min(best, SqDistPointSegment(a.Verts[0], s))
		}
	case len(bSegs) == 0:
		for _, s := range aSegs {
			best = math.Min(best, SqDistPointSegment(b.Verts[0], s))
		}
	default:
		for _, sa := range aSegs {
			for _, sb := range bSegs {
				best = math.Min(best, SqDistSegments(sa, sb))
			}
		}
	}
	return best
}

// checkAgainstOracle requires the bounded, pruned routines to answer
// exactly as the oracle does for the pair, in both argument orders, at
// every given threshold and at the thresholds that straddle the pair's
// own distance by one ulp.
func checkAgainstOracle(t *testing.T, label string, a, b *Object, epss []float64) {
	t.Helper()
	for _, pair := range [2][2]*Object{{a, b}, {b, a}} {
		x, y := pair[0], pair[1]
		ref := refSqDist(x, y)
		if got := SqDist(x, y); got != ref {
			t.Fatalf("%s: SqDist = %v, oracle %v\na=%+v\nb=%+v", label, got, ref, *x, *y)
		}
		wantHit := x.Bounds().Intersects(y.Bounds()) && ref == 0
		if got := Eval(Intersects, x, y, 0); got != wantHit {
			t.Fatalf("%s: Intersects = %v, oracle %v\na=%+v\nb=%+v", label, got, wantHit, *x, *y)
		}
		d := math.Sqrt(ref)
		all := append([]float64{d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)),
			d * (1 - 1e-12), d * (1 + 1e-12), d * (1 - 1e-8), d * (1 + 1e-8)}, epss...)
		for _, eps := range all {
			want := ref <= eps*eps
			if got := WithinDist(x, y, eps); got != want {
				t.Fatalf("%s: WithinDist(eps=%v) = %v, oracle says %v (sqdist %v)\na=%+v\nb=%+v",
					label, eps, got, want, ref, *x, *y)
			}
		}
	}
}

// epsLadder spans nine orders of magnitude below the unit and beyond
// any world the tests build, plus the values that are not distances.
var epsLadder = []float64{0, 1e-9, 1e-6, 1e-3, 0.05, 0.5, 1, 3, 50, 1e4, 1e12,
	math.Inf(1), -1, math.NaN()}

func TestWithinDistMatchesSqDistRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 3000; i++ {
		// Objects a few extents apart, so near, far, touching and
		// overlapping pairs all occur.
		a := randomObject(rng, 1, rng.Float64()*6, rng.Float64()*6, 0.2+rng.Float64()*2)
		b := randomObject(rng, 2, rng.Float64()*6, rng.Float64()*6, 0.2+rng.Float64()*2)
		checkAgainstOracle(t, "random", &a, &b, epsLadder)
	}
}

// TestWithinDistMatchesSqDistFarFromOrigin moves the same kind of pairs
// out to where one ulp of a coordinate is no longer small next to the
// distances asked about: the guard must hold against the error of the
// computed distance, which is absolute in the coordinates.
func TestWithinDistMatchesSqDistFarFromOrigin(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, origin := range []float64{1e3, 1e6, 1e9, -1e7} {
		for _, scale := range []float64{1, 1e-3, 1e-6} {
			for i := 0; i < 300; i++ {
				cx, cy := origin+rng.Float64()*4*scale, origin/3+rng.Float64()*4*scale
				a := randomObject(rng, 1, cx, cy, scale*(0.2+rng.Float64()))
				b := randomObject(rng, 2, cx+(rng.Float64()*2-1)*3*scale, cy+(rng.Float64()*2-1)*3*scale, scale*(0.2+rng.Float64()))
				checkAgainstOracle(t, "far from origin", &a, &b, []float64{1e-9, scale / 10, scale, 10 * scale})
			}
		}
	}
}

// TestWithinDistMatchesSqDistLattice draws every vertex from a small
// integer lattice: distances are exact in floating point, many pairs
// sit at exactly ε (3-4-5 and 5-12-13 offsets), and touching, collinear
// overlapping and nested configurations come up by themselves.
func TestWithinDistMatchesSqDistLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	lattice := func(id int64, ox, oy int) Object {
		pt := func() geom.Point {
			return geom.Point{X: float64(ox + rng.Intn(5)), Y: float64(oy + rng.Intn(5))}
		}
		switch rng.Intn(4) {
		case 0:
			return NewPoint(id, pt())
		case 1:
			n := 2 + rng.Intn(3)
			vs := make([]geom.Point, n)
			for i := range vs {
				vs[i] = pt()
			}
			return NewPolyline(id, vs)
		case 2: // axis-aligned box
			w, h := float64(1+rng.Intn(4)), float64(1+rng.Intn(4))
			x, y := float64(ox), float64(oy)
			return NewPolygon(id, []geom.Point{{X: x, Y: y}, {X: x + w, Y: y}, {X: x + w, Y: y + h}, {X: x, Y: y + h}})
		default: // lattice triangle, possibly a sliver or degenerate
			return NewPolygon(id, []geom.Point{pt(), pt(), pt()})
		}
	}
	exact := []float64{0, 1, 2, 3, 4, 5, 10, 13, math.Sqrt2, math.Sqrt(5)}
	for i := 0; i < 6000; i++ {
		a := lattice(1, 0, 0)
		b := lattice(2, rng.Intn(16)-4, rng.Intn(16)-4)
		checkAgainstOracle(t, "lattice", &a, &b, exact)
	}
}

func TestWithinDistMatchesSqDistAdversarial(t *testing.T) {
	sq := func(id int64, x, y, w float64) Object {
		return NewPolygon(id, []geom.Point{{X: x, Y: y}, {X: x + w, Y: y}, {X: x + w, Y: y + w}, {X: x, Y: y + w}})
	}
	unit := sq(1, 0, 0, 10)
	cases := []struct {
		name string
		a, b Object
	}{
		{"exactly eps apart, axis", unit, sq(2, 15, 0, 10)},
		{"exactly eps apart, 3-4-5 corner", unit, sq(2, 13, 14, 2)},
		{"touching at a corner", unit, sq(2, 10, 10, 3)},
		{"touching along an edge", unit, sq(2, 10, 2, 3)},
		{"nested, boundaries apart", unit, sq(2, 4, 4, 2)},
		{"nested the other way", sq(1, 4, 4, 2), unit},
		{"first vertex outside, body crossing", unit,
			NewPolyline(2, []geom.Point{{X: -3, Y: 5}, {X: 5, Y: 5}})},
		{"collinear overlap", NewPolyline(1, []geom.Point{{X: 0, Y: 0}, {X: 6, Y: 0}}),
			NewPolyline(2, []geom.Point{{X: 4, Y: 0}, {X: 9, Y: 0}})},
		{"collinear, apart", NewPolyline(1, []geom.Point{{X: 0, Y: 0}, {X: 6, Y: 0}}),
			NewPolyline(2, []geom.Point{{X: 9, Y: 0}, {X: 12, Y: 0}})},
		{"collinear on a slope, apart", NewPolyline(1, []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 1}}),
			NewPolyline(2, []geom.Point{{X: 6, Y: 2}, {X: 9, Y: 3}})},
		{"sliver polygon beside a line", NewPolygon(1, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 1e-9}, {X: 100, Y: 0}}),
			NewPolyline(2, []geom.Point{{X: 0, Y: 1e-3}, {X: 100, Y: 1e-3}})},
		{"sliver polygons, crossing", NewPolygon(1, []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 1e-7}, {X: 100, Y: 0}}),
			NewPolygon(2, []geom.Point{{X: 50, Y: -1}, {X: 50 + 1e-7, Y: 1}, {X: 50 - 1e-7, Y: 1}})},
		{"zero-area polygon", NewPolygon(1, []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 10, Y: 0}}),
			NewPoint(2, geom.Point{X: 5, Y: 3})},
		{"point on a vertex", unit, NewPoint(2, geom.Point{X: 10, Y: 10})},
		{"point on an edge", unit, NewPoint(2, geom.Point{X: 10, Y: 5})},
		{"point one ulp off an edge", unit, NewPoint(2, geom.Point{X: math.Nextafter(10, 11), Y: 5})},
		{"point and point", NewPoint(1, geom.Point{X: 0, Y: 0}), NewPoint(2, geom.Point{X: 3, Y: 4})},
		{"point and polyline end", NewPoint(1, geom.Point{X: 0, Y: 0}),
			NewPolyline(2, []geom.Point{{X: 3, Y: 4}, {X: 8, Y: 4}})},
		{"polyline endpoint rounds past a slanted end", NewPolyline(1, []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.7, Y: 0.3}}),
			NewPolyline(2, []geom.Point{{X: 0.7 + 1e-9, Y: 0.3 + 1e-9}, {X: 2, Y: 2}})},
		{"huge and tiny", sq(1, -1e6, -1e6, 2e6), NewPolyline(2, []geom.Point{{X: 1e6 + 1e-6, Y: 0}, {X: 1e6 + 1, Y: 1}})},
	}
	for _, tc := range cases {
		checkAgainstOracle(t, tc.name, &tc.a, &tc.b, epsLadder)
	}
}

// TestWithinDistGuardCoversProjectionRounding hunts for the inputs a
// guard with only a relative margin on ε gets wrong. Clamped to t = 1,
// SqDistPointSegment measures to A + (B−A), which can land an ulp past
// B; for a point a few ulps beyond that corner the computed distance
// then undershoots the gap between the boxes, by up to two orders of
// magnitude. With ε set to that computed distance the oracle accepts
// the pair while the box gap exceeds ε — only an absolute slack, scaled
// to the coordinates, keeps the pruned routine in agreement.
func TestWithinDistGuardCoversProjectionRounding(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	undershoots := 0
	for i := 0; i < 60000; i++ {
		off := []float64{0, 100, 1e6}[i%3]
		a := geom.Point{X: off + rng.Float64(), Y: off + rng.Float64()}
		b := geom.Point{X: off + 1 + rng.Float64()*100, Y: off + 1 + rng.Float64()*100}
		p := b
		for k := 1 + rng.Intn(4); k > 0; k-- {
			p.X, p.Y = math.Nextafter(p.X, math.Inf(1)), math.Nextafter(p.Y, math.Inf(1))
		}
		seg := Segment{A: a, B: b}
		if SqDistPointSegment(p, seg) >= geom.NewRect(a.X, a.Y, b.X, b.Y).SqMinDist(p) {
			continue
		}
		undershoots++
		line := NewPolyline(1, []geom.Point{a, b})
		away := NewPolyline(2, []geom.Point{p, {X: p.X + 1, Y: p.Y + 2}})
		checkAgainstOracle(t, "projection rounding", &line, &away, nil)
	}
	if undershoots == 0 {
		t.Fatal("the search found no computed distance below its box gap; it no longer tests the guard")
	}
}

// ---- Allocation gate --------------------------------------------------

// TestEvalAllocs pins refinement at zero allocations: every predicate on
// every combination of kinds, hits and misses alike.
func TestEvalAllocs(t *testing.T) {
	shapes := []Object{
		NewPoint(1, geom.Point{X: 2, Y: 2}),
		NewPoint(2, geom.Point{X: 40, Y: 40}),
		NewPolyline(3, []geom.Point{{X: 1, Y: 1}, {X: 3, Y: 2}, {X: 5, Y: 1}, {X: 7, Y: 3}}),
		NewPolyline(4, []geom.Point{{X: 30, Y: 30}, {X: 31, Y: 33}}),
		NewPolygon(5, []geom.Point{{X: 0, Y: 0}, {X: 6, Y: 0}, {X: 7, Y: 4}, {X: 3, Y: 6}, {X: -1, Y: 4}}),
		NewPolygon(6, []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 2, Y: 2}, {X: 1, Y: 2}}),
		NewPolygon(7, []geom.Point{{X: 20, Y: 20}, {X: 24, Y: 20}, {X: 22, Y: 25}}),
	}
	for _, pred := range []Predicate{Intersects, Contains, WithinDistance} {
		for i := range shapes {
			for j := range shapes {
				a, b := &shapes[i], &shapes[j]
				if allocs := testing.AllocsPerRun(20, func() { Eval(pred, a, b, 1.5) }); allocs != 0 {
					t.Errorf("Eval(%v, %v #%d, %v #%d) allocates %.1f objects/op, want 0",
						pred, a.Kind, a.ID, b.Kind, b.ID, allocs)
				}
			}
		}
	}
}

// ---- Arena decoder ----------------------------------------------------

// TestDecodeObjectIntoRejectsNonFinite pins that decoding fails closed
// on a NaN or ±Inf coordinate in either axis of any vertex, for every
// kind: DecodeObjectInto leaves the arena as it was passed in.
func TestDecodeObjectIntoRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, o := range []Object{
			NewPoint(1, geom.Point{X: 1, Y: 2}),
			NewPolyline(2, []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 0}}),
			NewPolygon(3, []geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 2, Y: 3}}),
		} {
			for v := range o.Verts {
				for axis := 0; axis < 2; axis++ {
					verts := slices.Clone(o.Verts)
					if axis == 0 {
						verts[v].X = bad
					} else {
						verts[v].Y = bad
					}
					enc := AppendObject(nil, &Object{ID: o.ID, Kind: o.Kind, Verts: verts})
					arena := []geom.Point{{X: 7, Y: 8}}
					got, _, grown, err := DecodeObjectInto(arena, o.ID, enc)
					if err == nil {
						t.Fatalf("%v vertex %d axis %d = %v: decoded %+v, want an error", o.Kind, v, axis, bad, got)
					}
					if len(grown) != len(arena) || grown[0] != arena[0] {
						t.Fatalf("%v vertex %d axis %d = %v: rejected payload changed the arena to %v", o.Kind, v, axis, bad, grown)
					}
				}
			}
		}
	}
}

// FuzzDecodeObjectInto requires the arena decoder to accept and reject
// exactly what DecodeObject does, with the same error, to leave the
// arena it was given untouched, and to hand back the same vertices and
// their MBR, bit for bit what Object.Bounds computes.
func FuzzDecodeObjectInto(f *testing.F) {
	for _, o := range []Object{
		NewPoint(1, geom.Point{X: 1, Y: 2}),
		NewPolyline(2, []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 0}}),
		NewPolygon(3, []geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 2, Y: 3}}),
	} {
		enc := AppendObject(nil, &o)
		f.Add(enc)
		f.Add(enc[:len(enc)-1])                       // truncated vertex
		f.Add(enc[:wireHeader-1])                     // truncated header
		f.Add(append([]byte{enc[0] + 3}, enc[1:]...)) // corrupt kind
	}
	f.Add([]byte{9, 1, 0, 0, 0})                                                        // unknown kind
	f.Add([]byte{byte(KindPolygon), 0xff, 0xff, 0xff, 0xff})                            // vertex count past the cap
	f.Add([]byte{byte(KindPolygon), 0, 0, 0, 1})                                        // count at the cap, no bytes
	f.Add(AppendObject(nil, &Object{Kind: KindPoint, Verts: make([]geom.Point, 2)}))    // decodes, fails Validate
	f.Add(AppendObject(nil, &Object{Kind: KindPolygon, Verts: make([]geom.Point, 2)}))  // likewise
	f.Add(AppendObject(nil, &Object{Kind: KindPolyline, Verts: make([]geom.Point, 0)})) // likewise
	// A non-finite vertex: rejected by Validate.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(AppendObject(nil, &Object{Kind: KindPolyline, Verts: []geom.Point{{X: 0, Y: 0}, {X: bad, Y: 1}}}))
		f.Add(AppendObject(nil, &Object{Kind: KindPoint, Verts: []geom.Point{{X: 1, Y: bad}}}))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		prefix := []geom.Point{{X: 7, Y: 8}, {X: 9, Y: 10}}
		arena := append(make([]geom.Point, 0, 4), prefix...)
		want, wantErr := DecodeObject(42, b)
		got, mbr, grown, err := DecodeObjectInto(arena, 42, b)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("DecodeObjectInto error %v, DecodeObject error %v", err, wantErr)
		}
		if len(grown) < len(prefix) || grown[0] != prefix[0] || grown[1] != prefix[1] {
			t.Fatalf("arena prefix disturbed: %v", grown)
		}
		if err != nil {
			if len(grown) != len(prefix) || len(got.Verts) != 0 {
				t.Fatalf("a rejected payload left %d vertices in the arena and %d in the object", len(grown)-len(prefix), len(got.Verts))
			}
			return
		}
		if got.ID != want.ID || got.Kind != want.Kind || len(got.Verts) != len(want.Verts) {
			t.Fatalf("decoded %+v, DecodeObject %+v", got, want)
		}
		if len(grown) != len(prefix)+len(got.Verts) || cap(got.Verts) != len(got.Verts) {
			t.Fatalf("arena holds %d vertices for an object of %d (cap %d)", len(grown)-len(prefix), len(got.Verts), cap(got.Verts))
		}
		// Bit-level comparisons: a fuzzed coordinate may be NaN.
		if !bytes.Equal(AppendObject(nil, &got), AppendObject(nil, &want)) ||
			!bytes.Equal(AppendObject(nil, &got), b[:ObjectWireSize(&got)]) {
			t.Fatalf("vertices differ from DecodeObject's or from the payload")
		}
		if wantMBR := want.Bounds(); rectBits(mbr) != rectBits(wantMBR) {
			t.Fatalf("MBR %v, Bounds %v", mbr, wantMBR)
		}
	})
}

func rectBits(r geom.Rect) [4]uint64 {
	return [4]uint64{math.Float64bits(r.MinX), math.Float64bits(r.MinY), math.Float64bits(r.MaxX), math.Float64bits(r.MaxY)}
}
