// Package grid implements the regular space partitioning that underlies
// both the adaptive-replication join and the PBSM baselines: equi-sized
// cells of side l = k·ε laid over the data MBR, cell/point addressing,
// the replication-area classification of Section 4/5 of the paper
// (interior, plain replication strips, merged duplicate-prone corner
// squares), quartet reference points, and the per-cell sample statistics
// from which agreements and LPT cost estimates are derived.
//
// Cell identifiers are dense ints in [0, NX*NY); the sentinel NoCell (-1)
// denotes a virtual cell outside the grid. Quartets exist at every grid
// corner point, including the outer boundary, where some of their four
// cells are virtual: this keeps the replication algorithms free of border
// special cases, because replication into a virtual cell is simply dropped.
package grid

import (
	"fmt"
	"math"

	"spatialjoin/internal/geom"
)

// NoCell is the identifier of a virtual cell outside the grid.
const NoCell = -1

// Side identifies one of the four side neighbours of a cell.
type Side uint8

// Side neighbours in the order used for array indexing.
const (
	West Side = iota
	East
	South
	North
)

// String returns a compact name ("W", "E", "S", "N").
func (s Side) String() string { return [...]string{"W", "E", "S", "N"}[s] }

// Corner identifies one of the four corners of a cell, and thereby the
// quartet whose reference point sits at that corner.
type Corner uint8

// Corners in the order used for array indexing.
const (
	SW Corner = iota
	SE
	NW
	NE
)

// String returns a compact name ("SW", "SE", "NW", "NE").
func (c Corner) String() string { return [...]string{"SW", "SE", "NW", "NE"}[c] }

// Dir identifies one of the eight neighbours of a cell (four sides and
// four diagonals).
type Dir uint8

// The eight neighbour directions.
const (
	DirW Dir = iota
	DirE
	DirS
	DirN
	DirSW
	DirSE
	DirNW
	DirNE
	// NumDirs is the number of neighbour directions.
	NumDirs = 8
)

// String returns a compact name for the direction.
func (d Dir) String() string {
	return [...]string{"W", "E", "S", "N", "SW", "SE", "NW", "NE"}[d]
}

// Opposite returns the direction pointing back (W<->E, SW<->NE, ...).
func (d Dir) Opposite() Dir {
	switch d {
	case DirW:
		return DirE
	case DirE:
		return DirW
	case DirS:
		return DirN
	case DirN:
		return DirS
	case DirSW:
		return DirNE
	case DirSE:
		return DirNW
	case DirNW:
		return DirSE
	default:
		return DirSW
	}
}

// Delta returns the (dx, dy) cell offset of the direction.
func (d Dir) Delta() (int, int) {
	switch d {
	case DirW:
		return -1, 0
	case DirE:
		return 1, 0
	case DirS:
		return 0, -1
	case DirN:
		return 0, 1
	case DirSW:
		return -1, -1
	case DirSE:
		return 1, -1
	case DirNW:
		return -1, 1
	default: // DirNE
		return 1, 1
	}
}

// Grid is a regular partitioning of the data space into equi-sized cells.
type Grid struct {
	Bounds geom.Rect // data-space MBR the grid covers
	Eps    float64   // join distance threshold ε
	Res    float64   // resolution multiplier k: cell side l = k·ε
	Tile   float64   // cell side length l
	NX, NY int       // number of cells per axis
}

// MaxCells bounds every grid a join sizes dense tables by: a plan's cell
// statistics, agreements and rank tables, the disk engine's per-cell
// chunk lists, the stream engine's cells and the two-layer engine's
// tiles each hold one entry per cell.
const MaxCells = 1 << 22

// MaxWorkers, MaxPartitions and MaxWorkerCells bound the parallelism a
// join may ask for (dpe.CheckParallelism). Every simulated worker keeps
// a map log with a 4-byte entry per cell, and every (worker, partition)
// pair about eight times that: the log's byte counters per slab and the
// slab's row and byte counts per worker. MaxWorkerCells bounds workers ×
// (cells + 8 × partitions): 256 MiB of log entries per side, which
// still lets up to 15 workers map a MaxCells grid.
const (
	MaxWorkers     = 1 << 12
	MaxPartitions  = 1 << 16
	MaxWorkerCells = 1 << 26
)

// CheckCells is the one check run before any dense grid or tile grid is
// sized: it returns an error when a grid of the given cell count, taken
// in floating point so that a tiny cell side cannot overflow int first,
// exceeds MaxCells. A NaN count fails too.
func CheckCells(cells float64) error {
	if !(cells <= MaxCells) {
		return fmt.Errorf("grid: a %.4g-cell grid exceeds the limit of %d cells (tables are dense, one entry per cell)", cells, MaxCells)
	}
	return nil
}

// Check is CheckCells for the grid New(bounds, eps, res) would build.
func Check(bounds geom.Rect, eps, res float64) error {
	tile := res * eps
	nx, ny := math.Ceil(bounds.Width()/tile), math.Ceil(bounds.Height()/tile)
	if err := CheckCells(math.Max(nx, 1) * math.Max(ny, 1)); err != nil {
		return fmt.Errorf("%w: cell side %v over %v × %v", err, tile, bounds.Width(), bounds.Height())
	}
	return nil
}

// New constructs a grid over bounds for distance threshold eps with cell
// side res·eps. The paper requires res >= 2 for agreement-based
// replication; res < 2 grids (e.g. the ε-grid baseline, res = 1) are valid
// for PBSM-style universal replication only. New panics on non-positive
// eps or res, or an empty bounds rectangle, since every caller constructs
// grids from validated configuration; callers that size tables by the
// grid run Check first.
func New(bounds geom.Rect, eps, res float64) *Grid {
	if eps <= 0 {
		panic(fmt.Sprintf("grid: eps must be positive, got %v", eps))
	}
	if res <= 0 {
		panic(fmt.Sprintf("grid: resolution must be positive, got %v", res))
	}
	if bounds.IsEmpty() {
		panic("grid: empty bounds")
	}
	tile := res * eps
	nx := int(math.Ceil(bounds.Width() / tile))
	ny := int(math.Ceil(bounds.Height() / tile))
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	return &Grid{Bounds: bounds, Eps: eps, Res: res, Tile: tile, NX: nx, NY: ny}
}

// NumCells returns the total number of cells.
func (g *Grid) NumCells() int { return g.NX * g.NY }

// SupportsAgreements reports whether the grid resolution satisfies the
// l >= 2ε precondition of agreement-based replication.
func (g *Grid) SupportsAgreements() bool { return g.Tile >= 2*g.Eps }

// Locate returns the coordinates of the cell enclosing p, clamped to the
// grid so that points on the maximum border belong to the last cell.
func (g *Grid) Locate(p geom.Point) (cx, cy int) {
	cx = int((p.X - g.Bounds.MinX) / g.Tile)
	cy = int((p.Y - g.Bounds.MinY) / g.Tile)
	if cx < 0 {
		cx = 0
	} else if cx >= g.NX {
		cx = g.NX - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.NY {
		cy = g.NY - 1
	}
	return cx, cy
}

// CellID maps cell coordinates to a dense identifier, or NoCell when the
// coordinates fall outside the grid.
func (g *Grid) CellID(cx, cy int) int {
	if cx < 0 || cx >= g.NX || cy < 0 || cy >= g.NY {
		return NoCell
	}
	return cy*g.NX + cx
}

// CellCoords is the inverse of CellID for valid identifiers.
func (g *Grid) CellCoords(id int) (cx, cy int) {
	return id % g.NX, id / g.NX
}

// CellRect returns the closed rectangle covered by cell (cx, cy).
func (g *Grid) CellRect(cx, cy int) geom.Rect {
	x0 := g.Bounds.MinX + float64(cx)*g.Tile
	y0 := g.Bounds.MinY + float64(cy)*g.Tile
	return geom.Rect{MinX: x0, MinY: y0, MaxX: x0 + g.Tile, MaxY: y0 + g.Tile}
}

// LocalUV returns p's offsets from the west and south borders of cell
// (cx, cy). For a point inside the cell both are in [0, Tile].
func (g *Grid) LocalUV(p geom.Point, cx, cy int) (u, v float64) {
	u = p.X - (g.Bounds.MinX + float64(cx)*g.Tile)
	v = p.Y - (g.Bounds.MinY + float64(cy)*g.Tile)
	return u, v
}

// Neighbor returns the id of the neighbouring cell of (cx, cy) in
// direction d, or NoCell at the grid border.
func (g *Grid) Neighbor(cx, cy int, d Dir) int {
	dx, dy := d.Delta()
	return g.CellID(cx+dx, cy+dy)
}

// RefPoint returns the position of the grid corner (gx, gy),
// gx in [0, NX], gy in [0, NY]: the reference point of that quartet.
func (g *Grid) RefPoint(gx, gy int) geom.Point {
	return geom.Point{
		X: g.Bounds.MinX + float64(gx)*g.Tile,
		Y: g.Bounds.MinY + float64(gy)*g.Tile,
	}
}

// QuartetID packs quartet corner coordinates into a single key.
// Valid for gx in [0, NX], gy in [0, NY].
func (g *Grid) QuartetID(gx, gy int) int { return gy*(g.NX+1) + gx }

// NumQuartets returns the number of quartet reference points, including
// those on the outer boundary of the grid.
func (g *Grid) NumQuartets() int { return (g.NX + 1) * (g.NY + 1) }

// Pos is the local position of a cell within a quartet, named from the
// quartet reference point's perspective: BL is the cell south-west of the
// reference point, TR north-east of it, and so on.
type Pos uint8

// Quartet positions in array-index order.
const (
	BL Pos = iota
	BR
	TL
	TR
	// NumPos is the number of cells in a quartet.
	NumPos = 4
)

// String returns a compact name for the position.
func (p Pos) String() string { return [...]string{"BL", "BR", "TL", "TR"}[p] }

// Diagonal returns the position diagonally opposite p in the quartet
// (the cell sharing only the reference point with p).
func (p Pos) Diagonal() Pos { return 3 - p }

// SideAdjacent returns the two positions that share a border with p
// within the quartet.
func (p Pos) SideAdjacent() [2]Pos {
	switch p {
	case BL:
		return [2]Pos{BR, TL}
	case BR:
		return [2]Pos{BL, TR}
	case TL:
		return [2]Pos{TR, BL}
	default: // TR
		return [2]Pos{TL, BR}
	}
}

// IsDiagonalPair reports whether positions a and b share only the quartet
// reference point (rather than a border).
func IsDiagonalPair(a, b Pos) bool { return a.Diagonal() == b }

// PosCoord returns the (x, y) placement of a quartet position on the unit
// square, with the reference point at the centre: BL=(0,0), TR=(1,1).
func PosCoord(p Pos) (x, y int) {
	switch p {
	case BL:
		return 0, 0
	case BR:
		return 1, 0
	case TL:
		return 0, 1
	default: // TR
		return 1, 1
	}
}

// PosAcross returns the quartet position one step from p in side
// direction s, and whether that position exists within the quartet.
func PosAcross(p Pos, s Side) (Pos, bool) {
	x, y := PosCoord(p)
	switch s {
	case West:
		x--
	case East:
		x++
	case South:
		y--
	default: // North
		y++
	}
	if x < 0 || x > 1 || y < 0 || y > 1 {
		return 0, false
	}
	for q := Pos(0); q < NumPos; q++ {
		if qx, qy := PosCoord(q); qx == x && qy == y {
			return q, true
		}
	}
	panic("unreachable")
}

// QuartetCells returns the ids of the four cells of the quartet at corner
// (gx, gy), indexed by Pos; out-of-grid cells are NoCell.
func (g *Grid) QuartetCells(gx, gy int) [NumPos]int {
	return [NumPos]int{
		BL: g.CellID(gx-1, gy-1),
		BR: g.CellID(gx, gy-1),
		TL: g.CellID(gx-1, gy),
		TR: g.CellID(gx, gy),
	}
}

// CornerQuartet returns the quartet corner coordinates at the given corner
// of cell (cx, cy), plus the cell's Pos within that quartet.
func (g *Grid) CornerQuartet(cx, cy int, c Corner) (gx, gy int, pos Pos) {
	switch c {
	case SW:
		return cx, cy, TR
	case SE:
		return cx + 1, cy, TL
	case NW:
		return cx, cy + 1, BR
	default: // NE
		return cx + 1, cy + 1, BL
	}
}

// AreaKind classifies where in its cell a point lies, with respect to the
// replication areas of Figure 9 of the paper.
type AreaKind uint8

const (
	// AreaInterior is the no-replication area: farther than ε from every
	// cell border.
	AreaInterior AreaKind = iota
	// AreaCorner is a merged duplicate-prone area: within ε of the two
	// borders adjacent to one cell corner (an ε×ε corner square).
	AreaCorner
	// AreaStrip is a plain replication area: within ε of exactly one
	// cell border.
	AreaStrip
)

// String names the area kind.
func (k AreaKind) String() string {
	return [...]string{"interior", "corner", "strip"}[k]
}

// Area is the replication-area classification of a point within its cell.
type Area struct {
	Kind   AreaKind
	Corner Corner // valid when Kind == AreaCorner
	Side   Side   // valid when Kind == AreaStrip
}

// Classify locates p's cell and classifies p into the replication areas of
// that cell. It requires a grid with Tile >= 2ε, which guarantees the four
// corner squares are disjoint; a point within ε of two parallel borders is
// impossible then (up to the measure-zero Tile == 2ε centre point, which is
// assigned to one corner deterministically).
func (g *Grid) Classify(p geom.Point) (cx, cy int, area Area) {
	cx, cy = g.Locate(p)
	u, v := g.LocalUV(p, cx, cy)
	eps := g.Eps
	w := u <= eps        // near west border
	e := g.Tile-u <= eps // near east border
	s := v <= eps        // near south border
	n := g.Tile-v <= eps // near north border

	switch {
	case w && s:
		return cx, cy, Area{Kind: AreaCorner, Corner: SW}
	case e && s:
		return cx, cy, Area{Kind: AreaCorner, Corner: SE}
	case w && n:
		return cx, cy, Area{Kind: AreaCorner, Corner: NW}
	case e && n:
		return cx, cy, Area{Kind: AreaCorner, Corner: NE}
	case w:
		return cx, cy, Area{Kind: AreaStrip, Side: West}
	case e:
		return cx, cy, Area{Kind: AreaStrip, Side: East}
	case s:
		return cx, cy, Area{Kind: AreaStrip, Side: South}
	case n:
		return cx, cy, Area{Kind: AreaStrip, Side: North}
	default:
		return cx, cy, Area{Kind: AreaInterior}
	}
}

// StripQuartets returns the corner coordinates of the two quartets at the
// endpoints of the given side of cell (cx, cy), ordered nearest-first with
// respect to p, together with the cell's Pos within each.
func (g *Grid) StripQuartets(p geom.Point, cx, cy int, s Side) (q1x, q1y int, pos1 Pos, q2x, q2y int, pos2 Pos) {
	u, v := g.LocalUV(p, cx, cy)
	half := g.Tile / 2
	var cNear, cFar Corner
	switch s {
	case West:
		cNear, cFar = SW, NW
		if v > half {
			cNear, cFar = NW, SW
		}
	case East:
		cNear, cFar = SE, NE
		if v > half {
			cNear, cFar = NE, SE
		}
	case South:
		cNear, cFar = SW, SE
		if u > half {
			cNear, cFar = SE, SW
		}
	default: // North
		cNear, cFar = NW, NE
		if u > half {
			cNear, cFar = NE, NW
		}
	}
	q1x, q1y, pos1 = g.CornerQuartet(cx, cy, cNear)
	q2x, q2y, pos2 = g.CornerQuartet(cx, cy, cFar)
	return q1x, q1y, pos1, q2x, q2y, pos2
}

// AdjacentCornerQuartets returns, for a point in the corner square at
// corner c of cell (cx, cy), the corner coordinates of the two quartets
// q' and q” nearest to the corner's quartet q — the quartets at the two
// cell corners adjacent to c — with the cell's Pos within each.
func (g *Grid) AdjacentCornerQuartets(cx, cy int, c Corner) (q1x, q1y int, pos1 Pos, q2x, q2y int, pos2 Pos) {
	var horiz, vert Corner
	switch c {
	case SW:
		horiz, vert = SE, NW
	case SE:
		horiz, vert = SW, NE
	case NW:
		horiz, vert = NE, SW
	default: // NE
		horiz, vert = NW, SE
	}
	q1x, q1y, pos1 = g.CornerQuartet(cx, cy, horiz)
	q2x, q2y, pos2 = g.CornerQuartet(cx, cy, vert)
	return q1x, q1y, pos1, q2x, q2y, pos2
}

// ReplicationTargets appends to dst the ids of every real cell other than
// p's own whose MINDIST from p is at most eps, and returns the extended
// slice. This is the universal (PBSM-style) replication rule; it works for
// any grid resolution, including the ε-grid where a point can have up to
// eight targets.
func (g *Grid) ReplicationTargets(p geom.Point, dst []int) []int {
	cx, cy := g.Locate(p)
	ring := int(math.Ceil(g.Eps / g.Tile))
	if ring < 1 {
		ring = 1
	}
	eps2 := g.Eps * g.Eps
	for dy := -ring; dy <= ring; dy++ {
		for dx := -ring; dx <= ring; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			nx, ny := cx+dx, cy+dy
			id := g.CellID(nx, ny)
			if id == NoCell {
				continue
			}
			if g.CellRect(nx, ny).SqMinDist(p) <= eps2 {
				dst = append(dst, id)
			}
		}
	}
	return dst
}
