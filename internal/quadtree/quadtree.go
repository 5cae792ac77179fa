// Package quadtree implements the sample-built point-quadtree space
// partitioner used by the Sedona-style baseline: leaves are created by
// recursively splitting any region holding more than a capacity of sample
// points, so dense areas get fine partitions and sparse areas coarse ones.
// The resulting leaves tile the data space and act as join partitions.
package quadtree

import (
	"spatialjoin/internal/geom"
	"spatialjoin/internal/tuple"
)

// DefaultMaxDepth bounds recursion; 4^12 potential leaves far exceed any
// realistic partition count.
const DefaultMaxDepth = 12

// Partitioner is an immutable quadtree over a bounded region whose leaves
// are numbered 0..NumLeaves-1.
type Partitioner struct {
	root   *node
	leaves []*node
	bounds geom.Rect
}

type node struct {
	rect     geom.Rect
	children *[4]*node // nil for leaves
	leafID   int       // valid for leaves
}

// Build constructs a partitioner over bounds from a sample: regions with
// more than capacity sample points split recursively (up to maxDepth,
// DefaultMaxDepth if non-positive). A non-positive capacity defaults to 1.
func Build(sampleTs []tuple.Tuple, bounds geom.Rect, capacity, maxDepth int) *Partitioner {
	if capacity <= 0 {
		capacity = 1
	}
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	pts := make([]geom.Point, len(sampleTs))
	for i, t := range sampleTs {
		pts[i] = t.Pt
	}
	p := &Partitioner{bounds: bounds}
	p.root = p.build(pts, bounds, capacity, maxDepth)
	return p
}

func (p *Partitioner) build(pts []geom.Point, rect geom.Rect, capacity, depth int) *node {
	if len(pts) <= capacity || depth <= 0 {
		n := &node{rect: rect, leafID: len(p.leaves)}
		p.leaves = append(p.leaves, n)
		return n
	}
	c := rect.Center()
	quads := [4]geom.Rect{
		{MinX: rect.MinX, MinY: rect.MinY, MaxX: c.X, MaxY: c.Y}, // SW
		{MinX: c.X, MinY: rect.MinY, MaxX: rect.MaxX, MaxY: c.Y}, // SE
		{MinX: rect.MinX, MinY: c.Y, MaxX: c.X, MaxY: rect.MaxY}, // NW
		{MinX: c.X, MinY: c.Y, MaxX: rect.MaxX, MaxY: rect.MaxY}, // NE
	}
	var parts [4][]geom.Point
	for _, pt := range pts {
		parts[quadIndex(pt, c)] = append(parts[quadIndex(pt, c)], pt)
	}
	n := &node{rect: rect, children: new([4]*node)}
	for i := range quads {
		n.children[i] = p.build(parts[i], quads[i], capacity, depth-1)
	}
	return n
}

// quadIndex routes a point to a quadrant; points exactly on the split
// lines go east/north, matching Locate.
func quadIndex(pt geom.Point, c geom.Point) int {
	i := 0
	if pt.X >= c.X {
		i |= 1
	}
	if pt.Y >= c.Y {
		i |= 2
	}
	return i
}

// NumLeaves returns the number of partitions.
func (p *Partitioner) NumLeaves() int { return len(p.leaves) }

// LeafRect returns the region of leaf id.
func (p *Partitioner) LeafRect(id int) geom.Rect { return p.leaves[id].rect }

// Locate returns the leaf containing pt; points outside the bounds are
// clamped onto the border first (the engine has no overflow partition).
func (p *Partitioner) Locate(pt geom.Point) int {
	pt = clamp(pt, p.bounds)
	n := p.root
	for n.children != nil {
		n = n.children[quadIndex(pt, n.rect.Center())]
	}
	return n.leafID
}

// CircleLeaves appends to dst the ids of every leaf whose region is within
// eps of center, and returns the extended slice.
func (p *Partitioner) CircleLeaves(center geom.Point, eps float64, dst []int) []int {
	eps2 := eps * eps
	var walk func(n *node)
	walk = func(n *node) {
		if n.rect.SqMinDist(center) > eps2 {
			return
		}
		if n.children == nil {
			dst = append(dst, n.leafID)
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(p.root)
	return dst
}

// RectLeaves appends to dst the ids of every leaf whose region
// intersects r (borders inclusive), and returns the extended slice.
// Non-point joins use it to replicate an object's (expanded) MBR across
// the partitions it may produce results in.
func (p *Partitioner) RectLeaves(r geom.Rect, dst []int) []int {
	var walk func(n *node)
	walk = func(n *node) {
		if !n.rect.Intersects(r) {
			return
		}
		if n.children == nil {
			dst = append(dst, n.leafID)
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(p.root)
	return dst
}

func clamp(pt geom.Point, r geom.Rect) geom.Point {
	if pt.X < r.MinX {
		pt.X = r.MinX
	} else if pt.X > r.MaxX {
		pt.X = r.MaxX
	}
	if pt.Y < r.MinY {
		pt.Y = r.MinY
	} else if pt.Y > r.MaxY {
		pt.Y = r.MaxY
	}
	return pt
}
