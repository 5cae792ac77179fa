// Package geom provides the elementary planar geometry used throughout the
// spatial-join library: points, axis-aligned rectangles, Euclidean distance,
// and the MINDIST lower bound between a point and a rectangle.
//
// All coordinates are float64. Distance predicates in the library compare
// squared distances where possible to avoid needless square roots.
package geom

import "math"

// Point is a location in the 2-dimensional data space.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Sqrt(p.SqDist(q))
}

// SqDist returns the squared Euclidean distance between p and q.
func (p Point) SqDist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Finite reports whether both coordinates are finite: neither NaN nor
// ±Inf. It costs two compares.
func (p Point) Finite() bool {
	return math.Abs(p.X) <= math.MaxFloat64 && math.Abs(p.Y) <= math.MaxFloat64
}

// WithinDist reports whether d(p, q) <= eps. It compares squared distances
// and therefore never computes a square root.
func (p Point) WithinDist(q Point, eps float64) bool {
	return p.SqDist(q) <= eps*eps
}

// Rect is a closed axis-aligned rectangle [MinX, MaxX] x [MinY, MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(x1, y1, x2, y2 float64) Rect {
	return Rect{
		MinX: min(x1, x2),
		MinY: min(y1, y2),
		MaxX: max(x1, x2),
		MaxY: max(y1, y2),
	}
}

// Width returns the extent of r along the x axis.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the extent of r along the y axis.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// Contains reports whether p lies in r (borders inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share at least one point
// (touching borders count as intersecting).
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Expand returns r grown by d on every side. A negative d shrinks r; the
// caller is responsible for keeping the result non-degenerate.
func (r Rect) Expand(d float64) Rect {
	return Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: min(r.MinX, s.MinX),
		MinY: min(r.MinY, s.MinY),
		MaxX: max(r.MaxX, s.MaxX),
		MaxY: max(r.MaxY, s.MaxY),
	}
}

// ExtendPoint returns the smallest rectangle covering r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return Rect{
		MinX: min(r.MinX, p.X),
		MinY: min(r.MinY, p.Y),
		MaxX: max(r.MaxX, p.X),
		MaxY: max(r.MaxY, p.Y),
	}
}

// EmptyRect returns a rectangle that behaves as the identity for Union and
// ExtendPoint: every coordinate is set so any real point extends it.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// IsEmpty reports whether r is the empty rectangle (or otherwise inverted).
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// SqMinDist returns the squared MINDIST between p and r: zero when p is
// inside r, otherwise the squared distance to the nearest point of r.
func (r Rect) SqMinDist(p Point) float64 {
	var dx, dy float64
	switch {
	case p.X < r.MinX:
		dx = r.MinX - p.X
	case p.X > r.MaxX:
		dx = p.X - r.MaxX
	}
	switch {
	case p.Y < r.MinY:
		dy = r.MinY - p.Y
	case p.Y > r.MaxY:
		dy = p.Y - r.MaxY
	}
	return dx*dx + dy*dy
}

// WithinMinDist reports whether MINDIST(p, r) <= eps.
func (r Rect) WithinMinDist(p Point, eps float64) bool {
	return r.SqMinDist(p) <= eps*eps
}

// BoundingRect returns the minimum bounding rectangle of the given points.
// It returns EmptyRect() for an empty slice.
func BoundingRect(pts []Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.ExtendPoint(p)
	}
	return r
}
