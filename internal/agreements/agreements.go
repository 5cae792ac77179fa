// Package agreements implements the paper's graph of agreements: the
// directed, typed, weighted multigraph over grid cells that records, for
// every pair of adjacent cells, which data set (R or S) is replicated
// between them, and — per quartet subgraph — which edges are marked
// (their tail cell's duplicate-prone points are excluded from replication
// to the head cell) and which are locked (protected from marking because
// another marking relies on them for correctness).
//
// The graph is represented as one Subgraph per quartet reference point,
// exactly as the paper's second dictionary (Section 5.1). Agreement types
// are a property of the unordered cell pair and are therefore computed
// from pair-level sample statistics only, which keeps the 1–2 subgraphs
// containing a side-sharing pair consistent by construction (Def. 4.2:
// "the edges that link two vertices are always of the same type").
package agreements

import (
	"fmt"
	"slices"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/tuple"
)

// Policy selects how agreement types are instantiated (Section 4.3).
type Policy uint8

const (
	// LPiB (least points in boundaries): the agreement type is the data
	// set with the fewest replication-candidate points between the two
	// cells.
	LPiB Policy = iota
	// DIFF: the cell with the greatest |#R - #S| determines the type,
	// which is the data set with the fewest points in that cell.
	DIFF
	// UniR replicates R everywhere: the PBSM UNI(R) baseline expressed as
	// a graph-of-agreements instance (every agreement type is R, no
	// triangle is mixed, nothing is marked).
	UniR
	// UniS is the symmetric universal instance replicating S everywhere.
	UniS
	// LPiBStrict is LPiB without the sampled-totals fallback on boundary
	// ties: ties resolve straight to R. It exists for the sampling
	// ablation (xpolicy), which quantifies how much the fallback recovers
	// under sparse sampling.
	LPiBStrict
)

// String names the policy as in the paper.
func (p Policy) String() string {
	switch p {
	case LPiB:
		return "LPiB"
	case DIFF:
		return "DIFF"
	case UniR:
		return "UNI(R)"
	case UniS:
		return "UNI(S)"
	case LPiBStrict:
		return "LPiB-strict"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// dirBetween returns the grid direction from quartet position i to j.
func dirBetween(i, j grid.Pos) grid.Dir {
	ix, iy := grid.PosCoord(i)
	jx, jy := grid.PosCoord(j)
	dx := jx - ix
	dy := jy - iy
	switch {
	case dx == 1 && dy == 0:
		return grid.DirE
	case dx == -1 && dy == 0:
		return grid.DirW
	case dx == 0 && dy == 1:
		return grid.DirN
	case dx == 0 && dy == -1:
		return grid.DirS
	case dx == 1 && dy == 1:
		return grid.DirNE
	case dx == -1 && dy == 1:
		return grid.DirNW
	case dx == 1 && dy == -1:
		return grid.DirSE
	case dx == -1 && dy == -1:
		return grid.DirSW
	default:
		panic("agreements: dirBetween called with identical positions")
	}
}

// Subgraph models the agreements among the quartet of cells around one
// grid corner: 4 vertices, 12 directed edges. Edge state is addressed by
// (tail, head) quartet positions.
type Subgraph struct {
	Ref   geom.Point       // the quartet's reference point
	Cells [grid.NumPos]int // cell ids by position; virtual cells are NoCell
	typ   [grid.NumPos][grid.NumPos]tuple.Set
	wgt   [grid.NumPos][grid.NumPos]int64
	mark  [grid.NumPos][grid.NumPos]bool
	lock  [grid.NumPos][grid.NumPos]bool
	// anyMark caches whether any directed edge is marked: the assignment
	// hot path (Algorithms 3 and 4) consults it to skip the per-edge
	// mark machinery entirely in the — overwhelmingly common — quartets
	// Algorithm 1 left untouched.
	anyMark bool
	// uniform caches whether all six pair types are equal (the common
	// value is typ[0][1]); together with anyMark it gives Algorithm 3 a
	// branch-light fast path for the dominant quartet shape.
	uniform bool
}

// Type returns the agreement type of the edge from position i to j
// (identical in both directions by construction).
func (s *Subgraph) Type(i, j grid.Pos) tuple.Set { return s.typ[i][j] }

// Weight returns the processing-cost weight of the directed edge i->j.
// Weights exist to order Algorithm 1's traversal, which uniform quartets
// skip entirely — their weights are never materialised and read as zero.
func (s *Subgraph) Weight(i, j grid.Pos) int64 { return s.wgt[i][j] }

// Marked reports whether the directed edge i->j is marked: points in the
// merged duplicate-prone area of cell i are excluded from replication to
// cell j.
func (s *Subgraph) Marked(i, j grid.Pos) bool { return s.mark[i][j] }

// Locked reports whether the directed edge i->j is locked against marking.
func (s *Subgraph) Locked(i, j grid.Pos) bool { return s.lock[i][j] }

// AnyMarked reports whether any directed edge of the subgraph is marked.
// When false, every Marked query would return false and no supplementary
// area exists in the quartet — the fast-path guard of Algorithms 3 and 4.
func (s *Subgraph) AnyMarked() bool { return s.anyMark }

// UniformType reports whether all six pair types of the quartet agree,
// and when they do, their common value. A uniform quartet has no mixed
// triangle, so Algorithm 1 marks nothing in it and every Type query
// returns the same set — the precondition of Algorithm 3's fast path.
func (s *Subgraph) UniformType() (tuple.Set, bool) { return s.typ[0][1], s.uniform }

// Graph is the full graph of agreements of a grid: one Subgraph per
// quartet reference point, indexed by grid.QuartetID.
type Graph struct {
	Grid   *grid.Grid
	Policy Policy
	Subs   []Subgraph
	// flags packs each quartet's fast-path state (uniform, uniform type,
	// any-marked) into one byte, indexed like Subs. The assignment hot
	// path probes millions of random quartets; the byte table stays
	// cache-resident where the ~200-byte Subgraph structs cannot.
	flags []byte
}

const (
	flagUniform byte = 1 << iota
	flagUniformS
	flagMarked
)

// Sub returns the subgraph of the quartet at corner (gx, gy).
func (gr *Graph) Sub(gx, gy int) *Subgraph {
	return &gr.Subs[gr.Grid.QuartetID(gx, gy)]
}

// Info returns the quartet's assignment fast-path state from the packed
// one-byte side table: the uniform pair type (meaningful only when
// uniform is true), whether all six pair types agree, and whether any
// directed edge is marked — without touching the Subgraph itself.
func (gr *Graph) Info(gx, gy int) (t tuple.Set, uniform, marked bool) {
	f := gr.flags[gr.Grid.QuartetID(gx, gy)]
	t = tuple.R
	if f&flagUniformS != 0 {
		t = tuple.S
	}
	return t, f&flagUniform != 0, f&flagMarked != 0
}

// refreshFlag re-derives the packed flags of quartet (gx, gy) from its
// resolved subgraph. Every path that mutates a subgraph's types or marks
// must call it before the graph is used for assignment.
func (gr *Graph) refreshFlag(gx, gy int) {
	s := gr.Sub(gx, gy)
	var f byte
	if s.uniform {
		f |= flagUniform
		if s.typ[0][1] == tuple.S {
			f |= flagUniformS
		}
	}
	if s.anyMark {
		f |= flagMarked
	}
	gr.flags[gr.Grid.QuartetID(gx, gy)] = f
}

// Order selects the edge traversal order of Algorithm 1. The paper
// argues for OrderPaper (Section 5.2); the other orders exist for the
// xorder ablation.
type Order uint8

const (
	// OrderPaper visits touching-point (diagonal) edges before side
	// edges, each group in descending weight — the paper's order, which
	// prefers markings that need no supplementary replication
	// (Corollary 4.9) and defuses expensive edges first.
	OrderPaper Order = iota
	// OrderWeightOnly sorts all 12 edges by descending weight, ignoring
	// the diagonal-first rule.
	OrderWeightOnly
	// OrderIndex visits edges in fixed positional order, ignoring
	// weights entirely.
	OrderIndex
)

// String names the order.
func (o Order) String() string {
	return [...]string{"paper", "weight-only", "index"}[o]
}

// Build instantiates the graph of agreements from per-cell sample
// statistics using the given policy, then derives the duplicate-free
// assignment by running Algorithm 1 on every subgraph with the paper's
// edge ordering. The grid must satisfy the l >= 2ε precondition.
func Build(st *grid.Stats, policy Policy) *Graph {
	return BuildOrdered(st, policy, OrderPaper)
}

// BuildOrdered is Build with an explicit Algorithm 1 edge order.
func BuildOrdered(st *grid.Stats, policy Policy, order Order) *Graph {
	g := st.Grid()
	if !g.SupportsAgreements() {
		panic(fmt.Sprintf("agreements: grid resolution %v·ε violates the l >= 2ε precondition", g.Res))
	}
	gr := &Graph{Grid: g, Policy: policy, Subs: make([]Subgraph, g.NumQuartets()), flags: make([]byte, g.NumQuartets())}
	for gy := 0; gy <= g.NY; gy++ {
		for gx := 0; gx <= g.NX; gx++ {
			s := gr.Sub(gx, gy)
			s.Ref = g.RefPoint(gx, gy)
			s.Cells = g.QuartetCells(gx, gy)
			if instantiateTypes(s, st, policy) {
				// Uniform quartet: Algorithm 1 marks nothing, so the 12
				// edge-weight products would never be read — skip them.
				s.uniform = true
			} else {
				instantiateWeights(s, st)
				resolveOrdered(s, order)
			}
			gr.refreshFlag(gx, gy)
		}
	}
	return gr
}

// BuildFromTypeFunc instantiates a graph over g whose agreement types are
// supplied by typeOf — which must be symmetric in its arguments and may
// receive grid.NoCell for virtual border cells — with zero edge weights,
// then derives the duplicate-free assignment with Algorithm 1. It is used
// by property tests and ablation experiments to exercise arbitrary
// agreement configurations beyond what LPiB/DIFF would produce.
func BuildFromTypeFunc(g *grid.Grid, typeOf func(ci, cj int) tuple.Set) *Graph {
	if !g.SupportsAgreements() {
		panic(fmt.Sprintf("agreements: grid resolution %v·ε violates the l >= 2ε precondition", g.Res))
	}
	gr := &Graph{Grid: g, Subs: make([]Subgraph, g.NumQuartets()), flags: make([]byte, g.NumQuartets())}
	for gy := 0; gy <= g.NY; gy++ {
		for gx := 0; gx <= g.NX; gx++ {
			s := gr.Sub(gx, gy)
			s.Ref = g.RefPoint(gx, gy)
			s.Cells = g.QuartetCells(gx, gy)
			for i := grid.Pos(0); i < grid.NumPos; i++ {
				for j := i + 1; j < grid.NumPos; j++ {
					t := typeOf(s.Cells[i], s.Cells[j])
					s.typ[i][j], s.typ[j][i] = t, t
				}
			}
			resolve(s)
			gr.refreshFlag(gx, gy)
		}
	}
	return gr
}

// TypeForPair exposes the pair-level agreement decision to incremental
// callers: the type the policy would assign, from the statistics st, to
// the unordered pair of adjacent cells ci and cj, where dir is the
// direction from ci to cj. Either cell may be grid.NoCell. The streaming
// engine's rebalancer evaluates it against exact live histograms, compares
// it with PairType, and commits a changed decision with SetPairType.
func TypeForPair(st *grid.Stats, ci, cj int, dir grid.Dir, policy Policy) tuple.Set {
	return pairType(st, ci, cj, dir, policy)
}

// SetPairType sets the agreement type of the unordered pair of cell
// (cx, cy) and its neighbour in direction d to t in every subgraph
// containing the pair — two for a side pair, one for a diagonal pair —
// so the subgraphs agree on it (Def. 4.2). Each of those subgraphs then
// has Algorithm 1 re-run with zero edge weights, as in BuildFromTypeFunc,
// so the graph stays a function of its pair types. It returns the corners
// of the rebuilt quartets: the streaming engine's rebalancer re-derives
// the assignment of their cells only, never the whole graph.
func (gr *Graph) SetPairType(cx, cy int, d grid.Dir, t tuple.Set) [][2]int {
	dx, dy := d.Delta()
	var corners [][2]int
	for gy := max(cy, cy+dy); gy <= min(cy, cy+dy)+1; gy++ {
		for gx := max(cx, cx+dx); gx <= min(cx, cx+dx)+1; gx++ {
			s := gr.Sub(gx, gy)
			pi, pj := quartetPos(gx, gy, cx, cy), quartetPos(gx, gy, cx+dx, cy+dy)
			s.typ[pi][pj], s.typ[pj][pi] = t, t
			s.wgt = [grid.NumPos][grid.NumPos]int64{}
			s.mark = [grid.NumPos][grid.NumPos]bool{}
			s.lock = [grid.NumPos][grid.NumPos]bool{}
			s.anyMark = false
			resolve(s)
			gr.refreshFlag(gx, gy)
			corners = append(corners, [2]int{gx, gy})
		}
	}
	return corners
}

// quartetPos returns the position of cell (cx, cy) in the quartet at
// corner (gx, gy), which spans cells gx-1..gx by gy-1..gy.
func quartetPos(gx, gy, cx, cy int) grid.Pos {
	return grid.Pos(cx - gx + 1 + 2*(cy-gy+1))
}

// instantiateTypes decides only the agreement types of s; weights stay
// untouched. Build uses it to defer the 12 edge-weight products until a
// quartet turns out mixed — uniform quartets skip Algorithm 1 entirely,
// so their weights are never read.
func instantiateTypes(s *Subgraph, st *grid.Stats, policy Policy) (uniform bool) {
	uniform = true
	for i := grid.Pos(0); i < grid.NumPos; i++ {
		for j := i + 1; j < grid.NumPos; j++ {
			t := pairType(st, s.Cells[i], s.Cells[j], dirBetween(i, j), policy)
			s.typ[i][j], s.typ[j][i] = t, t
			if t != s.typ[0][1] {
				uniform = false
			}
		}
	}
	return uniform
}

// instantiateWeights fills in the 12 edge weights from the already
// decided types.
func instantiateWeights(s *Subgraph, st *grid.Stats) {
	for i := grid.Pos(0); i < grid.NumPos; i++ {
		for j := i + 1; j < grid.NumPos; j++ {
			t := s.typ[i][j]
			s.wgt[i][j] = edgeWeight(st, s.Cells[i], s.Cells[j], dirBetween(i, j), t)
			s.wgt[j][i] = edgeWeight(st, s.Cells[j], s.Cells[i], dirBetween(j, i), t)
		}
	}
}

// pairType decides the agreement type between adjacent cells ci and cj
// (dir is the direction from ci to cj). It depends only on pair-level
// statistics so every subgraph containing the pair reaches the same
// decision. Ties resolve to R.
func pairType(st *grid.Stats, ci, cj int, dir grid.Dir, policy Policy) tuple.Set {
	switch policy {
	case UniR:
		return tuple.R
	case UniS:
		return tuple.S
	case LPiB, LPiBStrict:
		candR := int64(st.Candidates(ci, dir, tuple.R)) + int64(st.Candidates(cj, dir.Opposite(), tuple.R))
		candS := int64(st.Candidates(ci, dir, tuple.S)) + int64(st.Candidates(cj, dir.Opposite(), tuple.S))
		if candS != candR {
			if candS < candR {
				return tuple.S
			}
			return tuple.R
		}
		if policy == LPiBStrict {
			return tuple.R
		}
		// The sampled boundary counts tie (usually 0-0 under sparse
		// sampling): fall back to the sampled totals of the two cells,
		// the best remaining proxy for boundary density. A final tie
		// resolves to R.
		csi, csj := st.At(ci), st.At(cj)
		totR := int64(csi.Total[tuple.R]) + int64(csj.Total[tuple.R])
		totS := int64(csi.Total[tuple.S]) + int64(csj.Total[tuple.S])
		if totS < totR {
			return tuple.S
		}
		return tuple.R
	case DIFF:
		csi, csj := st.At(ci), st.At(cj)
		diffI := abs32(csi.Total[tuple.R] - csi.Total[tuple.S])
		diffJ := abs32(csj.Total[tuple.R] - csj.Total[tuple.S])
		decider := csi
		switch {
		case diffJ > diffI:
			decider = csj
		case diffJ == diffI && cj < ci:
			decider = csj // deterministic tie-break by cell id
		}
		if decider.Total[tuple.S] < decider.Total[tuple.R] {
			return tuple.S
		}
		return tuple.R
	default:
		panic(fmt.Sprintf("agreements: unknown policy %d", policy))
	}
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// edgeWeight is the processing cost induced by replication along the
// directed edge ci->cj of agreement type t: the number of t-points of ci
// that are replication candidates toward cj, times the number of points
// of the other set in cj (Section 4.3, "Defining edge weights").
func edgeWeight(st *grid.Stats, ci, cj int, dir grid.Dir, t tuple.Set) int64 {
	return int64(st.Candidates(ci, dir, t)) * int64(st.At(cj).Total[t.Other()])
}

// quartetEdge is one directed edge of a subgraph during Algorithm 1.
type quartetEdge struct {
	i, j     grid.Pos
	diagonal bool
	weight   int64
}

// otherTwo returns the two quartet positions that are neither a nor b.
func otherTwo(a, b grid.Pos) [2]grid.Pos {
	var out [2]grid.Pos
	n := 0
	for p := grid.Pos(0); p < grid.NumPos; p++ {
		if p != a && p != b {
			out[n] = p
			n++
		}
	}
	return out
}

// resolve runs Algorithm 1 (duplicate-free graph generation) on s: it
// traverses the subgraph's edges — those linking cells with only a common
// touching point first, then the side edges, each group in descending
// weight order — and marks each eligible edge, locking the two edges whose
// head is the third triangle vertex. When both triangles containing an
// edge are eligible, the one whose to-be-locked edges have the largest
// weight sum is selected (Section 5.2).
func resolve(s *Subgraph) { resolveOrdered(s, OrderPaper) }

func resolveOrdered(s *Subgraph, order Order) {
	// Marking needs a mixed triangle: an edge of each type meeting at an
	// apex. A quartet whose six pair types are all equal cannot contain
	// one, so Algorithm 1 would mark nothing — skip the sort and the
	// traversal outright. Under sparse sampling most quartets are
	// uniform (empty regions tie to R everywhere), making this the
	// common case by a wide margin.
	uniform := true
	t0 := s.typ[0][1]
	for i := grid.Pos(0); uniform && i < grid.NumPos; i++ {
		for j := i + 1; j < grid.NumPos; j++ {
			if s.typ[i][j] != t0 {
				uniform = false
				break
			}
		}
	}
	s.uniform = uniform
	if uniform {
		return
	}

	var edgeArr [12]quartetEdge
	edges := edgeArr[:0]
	for i := grid.Pos(0); i < grid.NumPos; i++ {
		for j := grid.Pos(0); j < grid.NumPos; j++ {
			if i == j {
				continue
			}
			edges = append(edges, quartetEdge{
				i: i, j: j,
				diagonal: grid.IsDiagonalPair(i, j),
				weight:   s.wgt[i][j],
			})
		}
	}
	slices.SortStableFunc(edges, func(ea, eb quartetEdge) int {
		if order == OrderPaper && ea.diagonal != eb.diagonal {
			if ea.diagonal { // touching-point edges first
				return -1
			}
			return 1
		}
		if order != OrderIndex && ea.weight != eb.weight {
			if ea.weight > eb.weight { // descending weight
				return -1
			}
			return 1
		}
		if ea.i != eb.i { // deterministic tie-break
			return int(ea.i) - int(eb.i)
		}
		return int(ea.j) - int(eb.j)
	})

	for _, e := range edges {
		i, j := e.i, e.j
		if s.lock[i][j] || s.mark[i][j] {
			continue
		}
		// Only triangles whose three cells are all real can produce
		// duplicates (virtual cells hold no points and are never joined),
		// and marking inside a partly-virtual triangle would redirect
		// excluded points into a virtual cell — dropping them. Skip any
		// edge or triangle touching a virtual cell.
		if s.Cells[i] == grid.NoCell || s.Cells[j] == grid.NoCell {
			continue
		}
		bestK := grid.Pos(255)
		var bestLockWeight int64 = -1
		for _, k := range otherTwo(i, j) {
			if s.Cells[k] == grid.NoCell {
				continue
			}
			// Triangle (i, j, k) is eligible for marking e_ij when i is the
			// apex of a mixed triangle: e_ik shares e_ij's type, e_jk has
			// the other type, and neither e_jk nor e_ik is already marked.
			if s.typ[i][k] != s.typ[i][j] || s.typ[j][k] == s.typ[i][j] {
				continue
			}
			if s.mark[j][k] || s.mark[i][k] {
				continue
			}
			lockWeight := s.wgt[j][k] + s.wgt[i][k]
			if lockWeight > bestLockWeight {
				bestLockWeight = lockWeight
				bestK = k
			}
		}
		if bestK != grid.Pos(255) {
			s.mark[i][j] = true
			s.anyMark = true
			s.lock[j][bestK] = true
			s.lock[i][bestK] = true
		}
	}
}

// MixedTriangles returns the number of triangles of s that contain both
// agreement types — the configurations that require marking (diagnostics
// and tests).
func (s *Subgraph) MixedTriangles() int {
	n := 0
	forEachTriangle(func(a, b, c grid.Pos) {
		t1, t2, t3 := s.typ[a][b], s.typ[a][c], s.typ[b][c]
		if t1 != t2 || t2 != t3 {
			n++
		}
	})
	return n
}

// MarkedEdges returns the number of marked directed edges in s.
func (s *Subgraph) MarkedEdges() int {
	n := 0
	for i := grid.Pos(0); i < grid.NumPos; i++ {
		for j := grid.Pos(0); j < grid.NumPos; j++ {
			if i != j && s.mark[i][j] {
				n++
			}
		}
	}
	return n
}

// forEachTriangle visits the four 3-vertex subsets of a quartet.
func forEachTriangle(f func(a, b, c grid.Pos)) {
	f(grid.BL, grid.BR, grid.TL)
	f(grid.BL, grid.BR, grid.TR)
	f(grid.BL, grid.TL, grid.TR)
	f(grid.BR, grid.TL, grid.TR)
}

// SetTypesForTest overrides the agreement types of the unordered pairs of
// s and re-runs Algorithm 1, for exhaustive tests that enumerate type
// configurations. pairs is indexed like the iteration order of
// instantiate: (BL,BR), (BL,TL), (BL,TR), (BR,TL), (BR,TR), (TL,TR).
func (s *Subgraph) SetTypesForTest(types [6]tuple.Set) {
	idx := 0
	for i := grid.Pos(0); i < grid.NumPos; i++ {
		for j := i + 1; j < grid.NumPos; j++ {
			s.typ[i][j], s.typ[j][i] = types[idx], types[idx]
			idx++
		}
	}
	s.mark = [grid.NumPos][grid.NumPos]bool{}
	s.lock = [grid.NumPos][grid.NumPos]bool{}
	s.anyMark = false
	resolve(s)
}

// EstimatedCosts returns, per cell, the LPT cost estimate including
// replication: (R points native plus replicated in) × (S points native
// plus replicated in), from sample statistics and the agreement types.
// Marking is ignored — it only redirects a small fraction of points and
// this is a scheduling estimate, not an exact count.
func (gr *Graph) EstimatedCosts(st *grid.Stats) []int64 {
	g := gr.Grid
	costs := make([]int64, g.NumCells())
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			id := g.CellID(cx, cy)
			cs := st.At(id)
			est := [2]int64{int64(cs.Total[tuple.R]), int64(cs.Total[tuple.S])}
			for d := grid.Dir(0); d < grid.NumDirs; d++ {
				nb := g.Neighbor(cx, cy, d)
				if nb == grid.NoCell {
					continue
				}
				t := gr.PairType(cx, cy, d)
				// Points of type t flow from the neighbour toward this cell.
				est[t] += int64(st.Candidates(nb, d.Opposite(), t))
			}
			costs[id] = est[0] * est[1]
		}
	}
	return costs
}

// PairType returns the agreement type between cell (cx, cy) and its
// neighbour in direction d, read from a subgraph containing the pair
// (SetPairType keeps every such subgraph agreeing).
func (gr *Graph) PairType(cx, cy int, d grid.Dir) tuple.Set {
	dx, dy := d.Delta()
	gx, gy := max(cx, cx+dx), max(cy, cy+dy)
	return gr.Sub(gx, gy).typ[quartetPos(gx, gy, cx, cy)][quartetPos(gx, gy, cx+dx, cy+dy)]
}
