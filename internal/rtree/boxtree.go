// Package rtree implements an STR (Sort-Tile-Recursive) bulk-loaded
// R-tree over rectangles. It is the per-cell local index of the
// Sedona-style baseline — the indexed side's points packed as degenerate
// boxes and probed with ε-squares — and the degenerate-tile fallback of
// the two-layer non-point kernel.
package rtree

import (
	"cmp"
	"math"
	"slices"

	"spatialjoin/internal/geom"
)

// DefaultFanout is the default maximum number of entries per node.
const DefaultFanout = 16

// BoxEntry is one indexed rectangle. Ref is an opaque caller index (the
// two-layer kernel stores the position of the object in its per-tile
// slice there).
type BoxEntry struct {
	Rect geom.Rect
	Ref  int32
}

// BoxTree is an immutable STR bulk-loaded R-tree over rectangles. The
// Sedona-style kernel builds one per cell and the two-layer kernel one
// per degenerate tile — potentially thousands of tiny trees per join —
// so construction cost matters as much
// as probe cost: BuildBoxes packs bottom-up in O(n log n) with exactly
// one entry copy and no per-insert re-splits.
type BoxTree struct {
	root   *boxNode
	size   int
	fanout int
}

type boxNode struct {
	rect     geom.Rect
	children []*boxNode // nil for leaves
	entries  []BoxEntry // nil for internal nodes
}

// BuildBoxes constructs a BoxTree from es using STR packing with the
// given fanout (clamped to a minimum of 2; DefaultFanout if
// non-positive). The input slice is not modified.
func BuildBoxes(es []BoxEntry, fanout int) *BoxTree {
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	if fanout < 2 {
		fanout = 2
	}
	t := &BoxTree{size: len(es), fanout: fanout}
	if len(es) == 0 {
		return t
	}
	entries := make([]BoxEntry, len(es))
	copy(entries, es)
	t.root = buildBoxLevel(packBoxLeaves(entries, fanout), fanout)
	return t
}

// Size returns the number of indexed rectangles.
func (t *BoxTree) Size() int { return t.size }

// Height returns the number of levels (0 for an empty tree).
func (t *BoxTree) Height() int {
	h := 0
	for n := t.root; n != nil; {
		h++
		if len(n.children) == 0 {
			break
		}
		n = n.children[0]
	}
	return h
}

// Bounds returns the MBR of all indexed rectangles (empty rect when
// empty).
func (t *BoxTree) Bounds() geom.Rect {
	if t.root == nil {
		return geom.EmptyRect()
	}
	return t.root.rect
}

// NumLeaves counts leaf nodes (used by the packing test to check STR
// fill factor).
func (t *BoxTree) NumLeaves() int {
	n := 0
	var walk func(*boxNode)
	walk = func(b *boxNode) {
		if b.children == nil {
			n++
			return
		}
		for _, c := range b.children {
			walk(c)
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return n
}

// SearchIntersects visits every indexed rectangle intersecting q
// (borders inclusive).
func (t *BoxTree) SearchIntersects(q geom.Rect, visit func(BoxEntry)) {
	if t.root == nil {
		return
	}
	var walk func(n *boxNode)
	walk = func(n *boxNode) {
		if !n.rect.Intersects(q) {
			return
		}
		if n.children == nil {
			for _, e := range n.entries {
				if e.Rect.Intersects(q) {
					visit(e)
				}
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
}

// packBoxLeaves tiles entries into leaves: STR-sort them by centre x,
// cut the order into ⌈√leaves⌉ vertical slices, sort each slice by
// centre y and cut it into leaves of fanout entries.
func packBoxLeaves(entries []BoxEntry, fanout int) []*boxNode {
	slices.SortFunc(entries, func(a, b BoxEntry) int { return cmp.Compare(a.Rect.Center().X, b.Rect.Center().X) })
	nLeaves := (len(entries) + fanout - 1) / fanout
	sliceCount := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	sliceSize := sliceCount * fanout

	var leaves []*boxNode
	for lo := 0; lo < len(entries); lo += sliceSize {
		hi := lo + sliceSize
		if hi > len(entries) {
			hi = len(entries)
		}
		slice := entries[lo:hi]
		slices.SortFunc(slice, func(a, b BoxEntry) int { return cmp.Compare(a.Rect.Center().Y, b.Rect.Center().Y) })
		for s := 0; s < len(slice); s += fanout {
			e := s + fanout
			if e > len(slice) {
				e = len(slice)
			}
			leaf := &boxNode{entries: slice[s:e:e]}
			leaf.rect = slice[s].Rect
			for _, be := range slice[s+1 : e] {
				leaf.rect = leaf.rect.Union(be.Rect)
			}
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

func buildBoxLevel(nodes []*boxNode, fanout int) *boxNode {
	if len(nodes) == 1 {
		return nodes[0]
	}
	slices.SortFunc(nodes, func(a, b *boxNode) int { return cmp.Compare(a.rect.Center().X, b.rect.Center().X) })
	nParents := (len(nodes) + fanout - 1) / fanout
	sliceCount := int(math.Ceil(math.Sqrt(float64(nParents))))
	sliceSize := sliceCount * fanout

	var parents []*boxNode
	for lo := 0; lo < len(nodes); lo += sliceSize {
		hi := lo + sliceSize
		if hi > len(nodes) {
			hi = len(nodes)
		}
		slice := nodes[lo:hi]
		slices.SortFunc(slice, func(a, b *boxNode) int { return cmp.Compare(a.rect.Center().Y, b.rect.Center().Y) })
		for s := 0; s < len(slice); s += fanout {
			e := s + fanout
			if e > len(slice) {
				e = len(slice)
			}
			p := &boxNode{children: append([]*boxNode(nil), slice[s:e]...)}
			p.rect = slice[s].rect
			for _, c := range slice[s+1 : e] {
				p.rect = p.rect.Union(c.rect)
			}
			parents = append(parents, p)
		}
	}
	return buildBoxLevel(parents, fanout)
}
