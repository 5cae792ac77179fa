package extgeom

import (
	"fmt"

	"spatialjoin/internal/geom"
)

// Predicate names the spatial relations the non-point join engines
// evaluate. The filter step of a join works on MBRs (widened by ε for
// WithinDistance); the refinement step evaluates the exact predicate
// through Eval.
type Predicate uint8

const (
	// Intersects holds when the two objects share at least one point
	// (boundary contact and containment both count).
	Intersects Predicate = iota
	// Contains holds when the left object fully contains the right one
	// (boundary contact allowed). Only polygons have an interior, so a
	// non-polygon left side contains nothing but an identical point.
	Contains
	// WithinDistance holds when the minimum distance between the two
	// objects is at most ε.
	WithinDistance
)

// String names the predicate in the form the HTTP API accepts.
func (p Predicate) String() string {
	switch p {
	case Intersects:
		return "intersects"
	case Contains:
		return "contains"
	case WithinDistance:
		return "within"
	}
	return fmt.Sprintf("predicate(%d)", uint8(p))
}

// ParsePredicate is the inverse of String, accepting a few aliases.
func ParsePredicate(s string) (Predicate, error) {
	switch s {
	case "intersects", "intersect":
		return Intersects, nil
	case "contains":
		return Contains, nil
	case "within", "within-distance", "withindistance":
		return WithinDistance, nil
	}
	return 0, fmt.Errorf("extgeom: unknown predicate %q (want intersects, contains or within)", s)
}

// Eval evaluates the predicate on a concrete object pair. eps is only
// consulted by WithinDistance.
func Eval(p Predicate, a, b *Object, eps float64) bool {
	return EvalBoxed(p, a, b, a.Bounds(), b.Bounds(), eps)
}

// EvalBoxed is Eval for a caller that already holds both objects' MBRs
// (aBox = a.Bounds(), bBox = b.Bounds(), unwidened): a join kernel that
// filtered the pair on them refines without a second pass over the
// vertices.
func EvalBoxed(p Predicate, a, b *Object, aBox, bBox geom.Rect, eps float64) bool {
	switch p {
	case Intersects:
		return aBox.Intersects(bBox) && sqDistUpTo(a, b, aBox, bBox, 0) == 0
	case Contains:
		return contains(a, b, aBox, bBox)
	case WithinDistance:
		return sqDistUpTo(a, b, aBox, bBox, eps) <= eps*eps
	}
	return false
}

// contains reports whether a fully contains b, boundary contact
// allowed, given both MBRs. Only a polygon has an interior; for
// non-polygon a the relation degenerates to point equality (a point
// "contains" an identical point).
//
// For polygon a the test is: every vertex of b lies in the closed region
// of a, and no segment of b properly crosses a's boundary. Segments that
// graze a's boundary through one of a's vertices are additionally probed
// at interior sample points, which resolves the vertex-on-edge cases the
// proper-crossing test alone cannot see.
func contains(a, b *Object, aBox, bBox geom.Rect) bool {
	if a.Kind != KindPolygon {
		return a.Kind == KindPoint && b.Kind == KindPoint && a.Verts[0] == b.Verts[0]
	}
	if !aBox.ContainsRect(bBox) {
		return false
	}
	for _, v := range b.Verts {
		if !a.ContainsPoint(v) {
			return false
		}
	}
	if b.Kind == KindPoint {
		return true
	}
	na, nb := a.numSegs(), b.numSegs()
	for j := 0; j < nb; j++ {
		sb := b.seg(j)
		grazes := false
		for i := 0; i < na; i++ {
			sa := a.seg(i)
			if !SegmentsIntersect(sa, sb) {
				continue
			}
			if properCross(sa, sb) {
				return false
			}
			grazes = true
		}
		if !grazes {
			continue
		}
		// The segment touches a's boundary without a proper crossing
		// (endpoint contact, collinear overlap, or a pass through one of
		// a's vertices). Probe interior points of the segment: any sample
		// outside a proves an excursion.
		for _, t := range [...]float64{0.25, 0.5, 0.75} {
			if !a.ContainsPoint(interp(sb, t)) {
				return false
			}
		}
	}
	return true
}

// properCross reports whether the two segments cross at a single interior
// point of both (strict orientation sign changes on both sides) — the
// unambiguous "goes through the boundary" case.
func properCross(a, b Segment) bool {
	d1 := orient(b.A, b.B, a.A)
	d2 := orient(b.A, b.B, a.B)
	d3 := orient(a.A, a.B, b.A)
	d4 := orient(a.A, a.B, b.B)
	return ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))
}

func interp(s Segment, t float64) geom.Point {
	return geom.Point{
		X: s.A.X + t*(s.B.X-s.A.X),
		Y: s.A.Y + t*(s.B.Y-s.A.Y),
	}
}
