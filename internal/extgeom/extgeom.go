// Package extgeom provides the geometry of spatial objects with extent —
// line segments, polylines and simple polygons — and the exact distance
// computations the extended ε-distance join refines candidates with.
// It implements the paper's first future-work item ("extend the
// abstraction of the graph of agreements for other spatial objects, such
// as polygons and polylines"); the join-side construction lives in
// internal/extjoin.
package extgeom

import (
	"fmt"
	"math"

	"spatialjoin/internal/geom"
)

// Segment is a line segment between two endpoints.
type Segment struct {
	A, B geom.Point
}

// SqDistPointSegment returns the squared distance from p to the segment.
func SqDistPointSegment(p geom.Point, s Segment) float64 {
	dx := s.B.X - s.A.X
	dy := s.B.Y - s.A.Y
	len2 := dx*dx + dy*dy
	if len2 == 0 {
		return p.SqDist(s.A)
	}
	t := ((p.X-s.A.X)*dx + (p.Y-s.A.Y)*dy) / len2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return p.SqDist(geom.Point{X: s.A.X + t*dx, Y: s.A.Y + t*dy})
}

// SegmentsIntersect reports whether two segments share at least one point.
func SegmentsIntersect(a, b Segment) bool {
	d1 := orient(b.A, b.B, a.A)
	d2 := orient(b.A, b.B, a.B)
	d3 := orient(a.A, a.B, b.A)
	d4 := orient(a.A, a.B, b.B)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	return (d1 == 0 && onSegment(b, a.A)) ||
		(d2 == 0 && onSegment(b, a.B)) ||
		(d3 == 0 && onSegment(a, b.A)) ||
		(d4 == 0 && onSegment(a, b.B))
}

// orient returns the signed area orientation of the triangle (a, b, c).
func orient(a, b, c geom.Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// onSegment reports whether p (already known collinear with s) lies on s.
func onSegment(s Segment, p geom.Point) bool {
	return math.Min(s.A.X, s.B.X) <= p.X && p.X <= math.Max(s.A.X, s.B.X) &&
		math.Min(s.A.Y, s.B.Y) <= p.Y && p.Y <= math.Max(s.A.Y, s.B.Y)
}

// SqDistSegments returns the squared distance between two segments
// (zero when they intersect).
func SqDistSegments(a, b Segment) float64 {
	if SegmentsIntersect(a, b) {
		return 0
	}
	d := SqDistPointSegment(a.A, b)
	if v := SqDistPointSegment(a.B, b); v < d {
		d = v
	}
	if v := SqDistPointSegment(b.A, a); v < d {
		d = v
	}
	if v := SqDistPointSegment(b.B, a); v < d {
		d = v
	}
	return d
}

// Kind discriminates object geometries.
type Kind uint8

const (
	// KindPoint is a degenerate single-vertex object.
	KindPoint Kind = iota
	// KindPolyline is an open chain of segments.
	KindPolyline
	// KindPolygon is a closed simple ring (first vertex implicitly
	// connects to the last); its interior counts as part of the object.
	KindPolygon
)

// String names the kind.
func (k Kind) String() string {
	return [...]string{"point", "polyline", "polygon"}[k]
}

// Object is a spatial object with extent: an identified point, polyline
// or simple polygon.
type Object struct {
	ID    int64
	Kind  Kind
	Verts []geom.Point
}

// Validate reports whether the object is structurally sound: the
// vertex count suits its kind and every coordinate is finite.
func (o *Object) Validate() error {
	switch o.Kind {
	case KindPoint:
		if len(o.Verts) != 1 {
			return fmt.Errorf("extgeom: point object needs exactly 1 vertex, has %d", len(o.Verts))
		}
	case KindPolyline:
		if len(o.Verts) < 2 {
			return fmt.Errorf("extgeom: polyline needs at least 2 vertices, has %d", len(o.Verts))
		}
	case KindPolygon:
		if len(o.Verts) < 3 {
			return fmt.Errorf("extgeom: polygon needs at least 3 vertices, has %d", len(o.Verts))
		}
	default:
		return fmt.Errorf("extgeom: unknown kind %d", o.Kind)
	}
	// A NaN or infinite vertex poisons the MBR, so the object's tile
	// assignment would silently drop other objects' pairs.
	for i, v := range o.Verts {
		if math.IsNaN(v.X) || math.IsNaN(v.Y) || math.IsInf(v.X, 0) || math.IsInf(v.Y, 0) {
			return fmt.Errorf("extgeom: vertex %d is not finite: (%v, %v)", i, v.X, v.Y)
		}
	}
	return nil
}

// Bounds returns the object's minimum bounding rectangle.
func (o *Object) Bounds() geom.Rect {
	return geom.BoundingRect(o.Verts)
}

// Center returns the MBR centre, the object's grid reference point.
func (o *Object) Center() geom.Point {
	return o.Bounds().Center()
}

// HalfDiag returns half the MBR diagonal: the maximum distance from the
// centre to any point of the object.
func (o *Object) HalfDiag() float64 {
	b := o.Bounds()
	return math.Sqrt(b.Width()*b.Width()+b.Height()*b.Height()) / 2
}

// numSegs returns the number of segments seg indexes. A point has none;
// a polygon includes the closing edge.
func (o *Object) numSegs() int {
	n := len(o.Verts)
	if o.Kind == KindPolygon && n >= 3 {
		return n
	}
	return max(n-1, 0)
}

// seg returns the object's i-th segment, 0 <= i < numSegs(). Segment
// loops index the vertices in place: refinement runs once per candidate
// pair and must not allocate.
func (o *Object) seg(i int) Segment {
	j := i + 1
	if j == len(o.Verts) {
		j = 0
	}
	return Segment{A: o.Verts[i], B: o.Verts[j]}
}

// ContainsPoint reports whether p lies inside or on the boundary of a
// polygon object (ray casting with boundary inclusion). Non-polygons
// never contain points.
func (o *Object) ContainsPoint(p geom.Point) bool {
	if o.Kind != KindPolygon {
		return false
	}
	for i, ns := 0, o.numSegs(); i < ns; i++ {
		if SqDistPointSegment(p, o.seg(i)) == 0 {
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

// SqDist returns the squared distance between two objects: zero when they
// intersect or one contains the other, otherwise the squared minimum
// boundary distance.
func SqDist(a, b *Object) float64 { return sqDistUpTo(a, b, a.Bounds(), b.Bounds(), 0) }

// Dist returns the distance between two objects.
func Dist(a, b *Object) float64 { return math.Sqrt(SqDist(a, b)) }

// WithinDist reports whether the two objects are within eps of each
// other. It equals SqDist(a, b) <= eps*eps on every input, but stops at
// the first segment pair that is close enough and never evaluates pairs
// that cannot be.
func WithinDist(a, b *Object, eps float64) bool {
	return sqDistUpTo(a, b, a.Bounds(), b.Bounds(), eps) <= eps*eps
}

// sqDistUpTo computes the squared distance between a and b (whose MBRs
// the caller passes in) only as far as the question "is it at most eps?"
// needs: the result is at most eps² exactly when the full minimum over all
// segment pairs is, and it is that minimum — the exact squared distance —
// when eps is 0.
//
// Three shortcuts, none of which changes the answer:
//
//   - A polygon cannot contain a vertex that lies outside its MBR by more
//     than the rounding slack, so the containment test is skipped there.
//   - The running minimum only decreases, so once it is at most eps² the
//     scan stops.
//   - For eps > 0, a segment of a whose box is farther than eps + slack
//     from b's MBR, and a segment pair whose boxes are that far apart,
//     cannot produce a distance of eps or less and are skipped. If every
//     pair is skipped the result is +Inf.
func sqDistUpTo(a, b *Object, aBox, bBox geom.Rect, eps float64) float64 {
	// Point-point fast path.
	if a.Kind == KindPoint && b.Kind == KindPoint {
		return a.Verts[0].SqDist(b.Verts[0])
	}
	slack := roundingSlack(aBox, bBox, eps)
	// Containment: a polygon swallows any vertex inside it. (The guards
	// read !(gap > slack) so that a NaN anywhere runs the test.)
	if a.Kind == KindPolygon && !(aBox.SqMinDist(b.Verts[0]) > slack*slack) && a.ContainsPoint(b.Verts[0]) {
		return 0
	}
	if b.Kind == KindPolygon && !(bBox.SqMinDist(a.Verts[0]) > slack*slack) && b.ContainsPoint(a.Verts[0]) {
		return 0
	}
	stop := eps * eps
	best := math.Inf(1)
	na, nb := a.numSegs(), b.numSegs()
	switch {
	case na == 0 && nb == 0:
		return a.Verts[0].SqDist(b.Verts[0])
	case na == 0 || nb == 0:
		// One side has no segments: its first vertex against the other's.
		pt, o := a.Verts[0], b
		if nb == 0 {
			pt, o = b.Verts[0], a
		}
		for i, n := 0, o.numSegs(); i < n; i++ {
			if d := SqDistPointSegment(pt, o.seg(i)); d < best {
				if best = d; best <= stop {
					return best
				}
			}
		}
	default:
		prune := eps > 0
		reach2 := (eps + slack) * (eps + slack)
		for i := 0; i < na; i++ {
			sa := a.seg(i)
			saBox := geom.NewRect(sa.A.X, sa.A.Y, sa.B.X, sa.B.Y)
			if prune && sqGap(saBox, bBox) > reach2 {
				continue
			}
			for j := 0; j < nb; j++ {
				sb := b.seg(j)
				if prune && sqGap(saBox, geom.NewRect(sb.A.X, sb.A.Y, sb.B.X, sb.B.Y)) > reach2 {
					continue
				}
				if d := SqDistSegments(sa, sb); d < best {
					if best = d; best <= stop {
						return best
					}
				}
			}
		}
	}
	return best
}

// sqGap returns the squared distance between two boxes: zero when they
// overlap, otherwise the squared length of the shortest connection. No
// point of p is closer than that to any point of q.
func sqGap(p, q geom.Rect) float64 {
	dx := max(p.MinX-q.MaxX, q.MinX-p.MaxX, 0)
	dy := max(p.MinY-q.MaxY, q.MinY-p.MaxY, 0)
	return dx*dx + dy*dy
}

// roundingSlack is the margin the shortcuts of sqDistUpTo leave between
// what a bounding box proves and what they skip, for two objects with
// the given MBRs: 2⁻⁴⁰ · (|eps| + the largest absolute coordinate).
//
// The shortcuts have to be safe against the distances this package
// computes, not against the real ones. A box gap G is a lower bound on
// the real distance of whatever the boxes hold, and comes out of exact
// comparisons and one subtraction per axis (relative error 2⁻⁵³).
// SqDistPointSegment, however, measures to a projected point it computes
// as A + t·(B−A); that point is off the real segment by up to about
// 8·2⁻⁵³·M for coordinates bounded by M — an absolute error, which for a
// small eps next to large coordinates dwarfs any relative margin on eps.
// So a computed squared distance can be at most eps² only if
// G ≤ eps·(1+3·2⁻⁵³) + 8·2⁻⁵³·M, and (eps = 0) a vertex can test as
// inside or on a polygon only if it is that close to the polygon's MBR;
// ray casting, whose crossing abscissae carry the same error, cannot
// call a vertex farther out "inside" either. The slack is several
// thousand times those bounds, and still far below anything that would
// weaken the pruning.
func roundingSlack(aBox, bBox geom.Rect, eps float64) float64 {
	u := aBox.Union(bBox)
	m := max(-u.MinX, u.MaxX, -u.MinY, u.MaxY) // Min ≤ Max, so this is the largest |coordinate|
	return (math.Abs(eps) + m) * 0x1p-40
}

// NewPoint builds a point object.
func NewPoint(id int64, p geom.Point) Object {
	return Object{ID: id, Kind: KindPoint, Verts: []geom.Point{p}}
}

// NewPolyline builds a polyline object from its vertex chain.
func NewPolyline(id int64, verts []geom.Point) Object {
	return Object{ID: id, Kind: KindPolyline, Verts: verts}
}

// NewPolygon builds a polygon object from its ring (unclosed form: the
// last vertex connects back to the first implicitly).
func NewPolygon(id int64, ring []geom.Point) Object {
	return Object{ID: id, Kind: KindPolygon, Verts: ring}
}
