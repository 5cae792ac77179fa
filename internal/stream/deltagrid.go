package stream

import (
	"fmt"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/replicate"
	"spatialjoin/internal/tuple"
)

// canonical pair directions: every unordered pair of adjacent cells is
// owned by exactly one cell, the one from which the neighbour lies east,
// north, north-east, or north-west.
var canonDirs = [4]grid.Dir{grid.DirE, grid.DirN, grid.DirNE, grid.DirNW}

func canonSlot(d grid.Dir) int {
	switch d {
	case grid.DirE:
		return 0
	case grid.DirN:
		return 1
	case grid.DirNE:
		return 2
	case grid.DirNW:
		return 3
	default:
		return -1
	}
}

// deltaGrid maintains the paper's driver-side structures incrementally:
// the grid, exact per-cell histograms over the live points (grid.Stats
// fed by Add/Remove rather than a one-shot sample), a store of the
// current agreement type per adjacent cell pair, and the resolved graph
// of agreements built from that store. The store — not the statistics —
// is authoritative for the graph: statistics drift with every mutation,
// but a pair's type only changes when the rebalancer commits a flip, so
// the graph stays consistent (Def. 4.2) between flips by construction.
type deltaGrid struct {
	g      *grid.Grid
	policy agreements.Policy
	stats  *grid.Stats // exact live histograms, mutated per point
	types  []tuple.Set // current agreement type per canonical pair
	graph  *agreements.Graph
}

func newDeltaGrid(bounds geom.Rect, eps, res float64, policy agreements.Policy) (*deltaGrid, error) {
	if err := grid.Check(bounds, eps, res); err != nil {
		return nil, fmt.Errorf("stream: eps %v: %w", eps, err)
	}
	g := grid.New(bounds, eps, res)
	d := &deltaGrid{
		g:      g,
		policy: policy,
		stats:  grid.NewStats(g),
		types:  make([]tuple.Set, g.NumCells()*4),
	}
	d.resetTypes()
	d.graph = agreements.BuildFromTypeFunc(g, d.typeBetween)
	return d, nil
}

// resetTypes recomputes every canonical pair type from the current
// statistics — used at construction (empty stats: every tie resolves to
// R, the policy's deterministic default).
func (d *deltaGrid) resetTypes() {
	for id := 0; id < d.g.NumCells(); id++ {
		cx, cy := d.g.CellCoords(id)
		for slot, dir := range canonDirs {
			if d.g.Neighbor(cx, cy, dir) == grid.NoCell {
				continue
			}
			d.types[id*4+slot] = d.desiredType(id, dir)
		}
	}
}

// dirBetweenCells returns the direction from real cell ci to adjacent
// real cell cj, and false when the two are not neighbours.
func (d *deltaGrid) dirBetweenCells(ci, cj int) (grid.Dir, bool) {
	ix, iy := d.g.CellCoords(ci)
	jx, jy := d.g.CellCoords(cj)
	dx, dy := jx-ix, jy-iy
	for dir := grid.Dir(0); dir < grid.NumDirs; dir++ {
		ddx, ddy := dir.Delta()
		if ddx == dx && ddy == dy {
			return dir, true
		}
	}
	return 0, false
}

// typeBetween is the symmetric type function the agreements package
// consumes: the stored type for real pairs, R for pairs touching a
// virtual cell (never consulted for replication — virtual cells hold no
// points and Algorithm 1 skips their edges).
func (d *deltaGrid) typeBetween(ci, cj int) tuple.Set {
	if ci == grid.NoCell || cj == grid.NoCell {
		return tuple.R
	}
	dir, ok := d.dirBetweenCells(ci, cj)
	if !ok {
		return tuple.R
	}
	if slot := canonSlot(dir); slot >= 0 {
		return d.types[ci*4+slot]
	}
	return d.types[cj*4+canonSlot(dir.Opposite())]
}

// currentType returns the stored agreement type of the canonical pair
// (ci, dir); dir must be one of canonDirs.
func (d *deltaGrid) currentType(ci int, dir grid.Dir) tuple.Set {
	return d.types[ci*4+canonSlot(dir)]
}

// desiredType returns the type the policy would choose for the canonical
// pair (ci, dir) from the exact live histograms.
func (d *deltaGrid) desiredType(ci int, dir grid.Dir) tuple.Set {
	cx, cy := d.g.CellCoords(ci)
	return agreements.TypeForPair(d.stats, ci, d.g.Neighbor(cx, cy, dir), dir, d.policy)
}

// pairQuartets returns the grid-corner coordinates of every quartet
// containing the pair (ci, dir): two corners for a side pair, one for a
// diagonal pair. dir must be canonical.
func (d *deltaGrid) pairQuartets(ci int, dir grid.Dir) [][2]int {
	cx, cy := d.g.CellCoords(ci)
	switch dir {
	case grid.DirE:
		return [][2]int{{cx + 1, cy}, {cx + 1, cy + 1}}
	case grid.DirN:
		return [][2]int{{cx, cy + 1}, {cx + 1, cy + 1}}
	case grid.DirNE:
		return [][2]int{{cx + 1, cy + 1}}
	default: // grid.DirNW
		return [][2]int{{cx, cy + 1}}
	}
}

// flip commits a new agreement type for the canonical pair (ci, dir) and
// rebuilds every subgraph containing the pair — re-instantiating types
// from the store and re-running Algorithm 1's marking/locking with
// weights from the live histograms. It returns the rebuilt quartets'
// corner coordinates so the caller can migrate their cells' replicas.
func (d *deltaGrid) flip(ci int, dir grid.Dir, t tuple.Set) [][2]int {
	d.types[ci*4+canonSlot(dir)] = t
	qs := d.pairQuartets(ci, dir)
	for _, q := range qs {
		d.graph.RebuildSub(d.stats, q[0], q[1], d.typeBetween)
	}
	return qs
}

// assign returns the cells the current graph assigns a point of set to:
// its native cell first, then the replication targets of the paper's
// Algorithm 2 under the resolved agreements.
func (d *deltaGrid) assign(p geom.Point, set tuple.Set, buf []int) []int {
	return replicate.Adaptive(d.graph, p, set, buf)
}
