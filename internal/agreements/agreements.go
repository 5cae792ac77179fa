// Package agreements implements the paper's graph of agreements: the
// directed, typed, weighted multigraph over grid cells that records, for
// every pair of adjacent cells, which data set (R or S) is replicated
// between them, and — per quartet subgraph — which edges are marked
// (their tail cell's duplicate-prone points are excluded from replication
// to the head cell) and which are locked (protected from marking because
// another marking relies on them for correctness).
//
// The graph holds one entry per quartet reference point, as the paper's
// second dictionary (Section 5.1), but not the paper's subgraph: Algorithm
// 1 resolves each quartet in a stack Subgraph, and the graph keeps only
// its packed word (types, marks, locks) and its compiled assignment table
// (see Graph and table.go). Agreement types are a property of the
// unordered cell pair and are therefore computed from pair-level sample
// statistics only, which keeps the 1–2 quartets containing a side-sharing
// pair consistent by construction (Def. 4.2: "the edges that link two
// vertices are always of the same type").
package agreements

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

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
// grid corner: 4 vertices, 12 directed edges, addressed by (tail, head)
// quartet positions. It is Algorithm 1's per-quartet scratch: builds fill
// one on the stack, resolve it and store it packed (see Graph); nothing
// keeps it afterwards. Graph.Quartet rebuilds one, with zero weights, for
// tests and diagnostics.
type Subgraph struct {
	Ref   geom.Point       // the quartet's reference point
	Cells [grid.NumPos]int // cell ids by position; virtual cells are NoCell
	wgt   [grid.NumPos][grid.NumPos]int64
	w     uint32 // types, marks and locks in the word layout of table.go
}

// Type returns the agreement type of the edge from position i to j
// (identical in both directions by construction).
func (s *Subgraph) Type(i, j grid.Pos) tuple.Set { return wordType(s.w, i, j) }

// Weight returns the processing-cost weight of the directed edge i->j.
// Weights exist to order Algorithm 1's traversal, which uniform quartets
// skip entirely — their weights are never materialised and read as zero.
func (s *Subgraph) Weight(i, j grid.Pos) int64 { return s.wgt[i][j] }

// Marked reports whether the directed edge i->j is marked: points in the
// merged duplicate-prone area of cell i are excluded from replication to
// cell j.
func (s *Subgraph) Marked(i, j grid.Pos) bool { return wordMarked(s.w, i, j) }

// Locked reports whether the directed edge i->j is locked against marking.
func (s *Subgraph) Locked(i, j grid.Pos) bool { return wordLocked(s.w, i, j) }

// AnyMarked reports whether any directed edge of the subgraph is marked.
// When false, every Marked query returns false and no supplementary area
// exists in the quartet.
func (s *Subgraph) AnyMarked() bool { return s.w>>markShift&edgeMask != 0 }

// UniformType reports whether all six pair types of the quartet agree,
// and when they do, their common value. A uniform quartet has no mixed
// triangle, so Algorithm 1 marks nothing in it.
func (s *Subgraph) UniformType() (tuple.Set, bool) {
	types := s.w & typeMask
	return tuple.Set(types & 1), types == 0 || types == typeMask
}

// setType sets the agreement type of the pair of positions i and j.
func (s *Subgraph) setType(i, j grid.Pos, t tuple.Set) {
	b := pairBit[i][j]
	s.w = s.w&^(1<<b) | uint32(t)<<b
}

// clearMarks drops every mark and lock, so Algorithm 1 can run afresh.
func (s *Subgraph) clearMarks() { s.w &= typeMask }

// Graph is the full graph of agreements of a grid, stored as two arrays
// indexed by grid.QuartetID — 12 bytes per quartet, nothing else:
//   - words holds each resolved quartet's state: 6 pair-type bits, 12
//     mark bits and 12 lock bits (see the word layout in table.go);
//   - tables holds each quartet's compiled assignment table, one Slot per
//     (native position, set), which is all Algorithms 2–4 read per point.
//
// Cell ids and reference points are grid arithmetic.
type Graph struct {
	Grid   *grid.Grid
	Policy Policy
	words  []uint32
	tables []uint64
}

// newGraph allocates the two per-quartet arrays of a graph over g.
func newGraph(g *grid.Grid, policy Policy) *Graph {
	n := g.NumQuartets()
	return &Graph{Grid: g, Policy: policy, words: make([]uint32, n), tables: make([]uint64, n)}
}

// scratch returns a subgraph over the cells of quartet (gx, gy) with no
// types, weights, marks or locks.
func scratch(g *grid.Grid, gx, gy int) Subgraph {
	return Subgraph{Ref: g.RefPoint(gx, gy), Cells: g.QuartetCells(gx, gy)}
}

// store keeps the word of the resolved subgraph s of quartet (gx, gy) and
// its assignment table, compiled through the build's cache c.
func (gr *Graph) store(gx, gy int, s *Subgraph, c *tableCache) {
	q := gr.Grid.QuartetID(gx, gy)
	gr.words[q] = s.w
	gr.tables[q] = c.compile(s.w, realMask(s.Cells))
}

// Quartet rebuilds the subgraph of the quartet at corner (gx, gy) from
// its stored word: types, marks and locks as Algorithm 1 left them,
// weights zero.
func (gr *Graph) Quartet(gx, gy int) Subgraph {
	s := scratch(gr.Grid, gx, gy)
	s.w = gr.words[gr.Grid.QuartetID(gx, gy)]
	return s
}

// Slot returns the compiled assignment of a point of the given set whose
// native cell sits at position i of the quartet at corner (gx, gy).
func (gr *Graph) Slot(gx, gy int, i grid.Pos, set tuple.Set) Slot {
	return Slot(gr.tables[gr.Grid.QuartetID(gx, gy)] >> slotShift(i, set))
}

// Type returns the agreement type between positions i and j of the
// quartet at corner (gx, gy).
func (gr *Graph) Type(gx, gy int, i, j grid.Pos) tuple.Set {
	return wordType(gr.words[gr.Grid.QuartetID(gx, gy)], i, j)
}

// EdgeCounts totals the marked and locked directed edges over all
// quartets — the duplicate-free resolution state a plan reports.
func (gr *Graph) EdgeCounts() (marked, locked int64) {
	for _, w := range gr.words {
		marked += int64(bits.OnesCount32(w >> markShift & edgeMask))
		locked += int64(bits.OnesCount32(w >> lockShift & edgeMask))
	}
	return marked, locked
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

// BuildOrdered is Build with an explicit Algorithm 1 edge order, built
// on GOMAXPROCS goroutines (see BuildParallel).
func BuildOrdered(st *grid.Stats, policy Policy, order Order) *Graph {
	return BuildParallel(st, policy, order, runtime.GOMAXPROCS(0))
}

// BuildParallel is BuildOrdered on at most width goroutines. Algorithm 1
// resolves each quartet from the statistics alone, so the quartet rows
// are built independently: goroutine k takes rows k, k+width, …, keeps
// its own table cache and writes only its own rows' words and tables.
// The graph is the same for every width.
func BuildParallel(st *grid.Stats, policy Policy, order Order, width int) *Graph {
	g := st.Grid()
	if !g.SupportsAgreements() {
		panic(fmt.Sprintf("agreements: grid resolution %v·ε violates the l >= 2ε precondition", g.Res))
	}
	if policy > LPiBStrict {
		panic(fmt.Sprintf("agreements: unknown policy %d", policy))
	}
	gr := newGraph(g, policy)
	eachRow(g.NY+1, width, func(first, stride int) {
		var cache tableCache
		for gy := first; gy <= g.NY; gy += stride {
			for gx := 0; gx <= g.NX; gx++ {
				s := scratch(g, gx, gy)
				instantiate(&s, st, policy, order)
				gr.store(gx, gy, &s, &cache)
			}
		}
	})
	return gr
}

// eachRow runs fn on min(width, rows) goroutines, at least one, the
// first on the caller's: goroutine k gets (k, n) and owns rows k, k+n,
// k+2n, … of rows. It returns when every goroutine has finished.
func eachRow(rows, width int, fn func(first, stride int)) {
	n := max(1, min(width, rows))
	var wg sync.WaitGroup
	for k := 1; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(k, n)
		}()
	}
	fn(0, n)
	wg.Wait()
}

// BuildQuartet instantiates and resolves the subgraph of the quartet at
// corner (gx, gy) as BuildOrdered does, and returns it with its edge
// weights — the one place they can be read once the graph is built.
func BuildQuartet(st *grid.Stats, policy Policy, order Order, gx, gy int) Subgraph {
	s := scratch(st.Grid(), gx, gy)
	instantiate(&s, st, policy, order)
	return s
}

// instantiate decides the agreement types of s from st, then — unless the
// quartet is uniform, where Algorithm 1 marks nothing and its 12
// edge-weight products would never be read — its weights, and runs
// Algorithm 1 in the given order.
func instantiate(s *Subgraph, st *grid.Stats, policy Policy, order Order) {
	if !instantiateTypes(s, st, policy) {
		instantiateWeights(s, st)
		resolveOrdered(s, order)
	}
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
	gr := newGraph(g, LPiB)
	var cache tableCache
	for gy := 0; gy <= g.NY; gy++ {
		for gx := 0; gx <= g.NX; gx++ {
			s := scratch(g, gx, gy)
			for i := grid.Pos(0); i < grid.NumPos; i++ {
				for j := i + 1; j < grid.NumPos; j++ {
					s.setType(i, j, typeOf(s.Cells[i], s.Cells[j]))
				}
			}
			resolve(&s)
			gr.store(gx, gy, &s, &cache)
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
	var cache tableCache
	for gy := max(cy, cy+dy); gy <= min(cy, cy+dy)+1; gy++ {
		for gx := max(cx, cx+dx); gx <= min(cx, cx+dx)+1; gx++ {
			s := gr.Quartet(gx, gy)
			pi, pj := quartetPos(gx, gy, cx, cy), quartetPos(gx, gy, cx+dx, cy+dy)
			s.setType(pi, pj, t)
			s.clearMarks()
			resolve(&s)
			gr.store(gx, gy, &s, &cache)
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
	for i := grid.Pos(0); i < grid.NumPos; i++ {
		for j := i + 1; j < grid.NumPos; j++ {
			s.w |= uint32(pairType(st, s.Cells[i], s.Cells[j], dirBetween(i, j), policy)) << pairBit[i][j]
		}
	}
	_, uniform = s.UniformType()
	return uniform
}

// instantiateWeights fills in the 12 edge weights from the already
// decided types.
func instantiateWeights(s *Subgraph, st *grid.Stats) {
	for i := grid.Pos(0); i < grid.NumPos; i++ {
		for j := i + 1; j < grid.NumPos; j++ {
			t := s.Type(i, j)
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
	if _, uniform := s.UniformType(); uniform {
		return
	}

	var edges [12]quartetEdge
	n := 0
	for i := grid.Pos(0); i < grid.NumPos; i++ {
		for j := grid.Pos(0); j < grid.NumPos; j++ {
			if i == j {
				continue
			}
			edges[n] = quartetEdge{
				i: i, j: j,
				diagonal: grid.IsDiagonalPair(i, j),
				weight:   s.wgt[i][j],
			}
			n++
		}
	}
	// Insertion sort in place: edgeBefore is a total order, so this is
	// the order any stable sort would give, without a closure call per
	// comparison.
	for k := 1; k < len(edges); k++ {
		e, m := edges[k], k
		for ; m > 0 && edgeBefore(e, edges[m-1], order); m-- {
			edges[m] = edges[m-1]
		}
		edges[m] = e
	}

	w := s.w
	for _, e := range edges {
		i, j := e.i, e.j
		if wordLocked(w, i, j) || wordMarked(w, i, j) {
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
			if t := wordType(w, i, j); wordType(w, i, k) != t || wordType(w, j, k) == t {
				continue
			}
			if wordMarked(w, j, k) || wordMarked(w, i, k) {
				continue
			}
			lockWeight := s.wgt[j][k] + s.wgt[i][k]
			if lockWeight > bestLockWeight {
				bestLockWeight = lockWeight
				bestK = k
			}
		}
		if bestK != grid.Pos(255) {
			w |= 1<<(markShift+edgeBit[i][j]) | 1<<(lockShift+edgeBit[j][bestK]) | 1<<(lockShift+edgeBit[i][bestK])
		}
	}
	s.w = w
}

// edgeBefore reports whether Algorithm 1 visits edge a before edge b in
// the given order: touching-point (diagonal) edges first under
// OrderPaper, then descending weight unless OrderIndex, then by (i, j).
func edgeBefore(a, b quartetEdge, order Order) bool {
	if order == OrderPaper && a.diagonal != b.diagonal {
		return a.diagonal
	}
	if order != OrderIndex && a.weight != b.weight {
		return a.weight > b.weight
	}
	if a.i != b.i {
		return a.i < b.i
	}
	return a.j < b.j
}

// EstimatedCosts returns, per cell, the LPT cost estimate including
// replication: (R points native plus replicated in) × (S points native
// plus replicated in), from sample statistics and the agreement types.
// Marking is ignored — it only redirects a small fraction of points and
// this is a scheduling estimate, not an exact count.
func (gr *Graph) EstimatedCosts(st *grid.Stats) []int64 {
	return gr.EstimatedCostsParallel(st, runtime.GOMAXPROCS(0))
}

// EstimatedCostsParallel is EstimatedCosts on at most width goroutines,
// each owning every width-th cell row as in BuildParallel.
func (gr *Graph) EstimatedCostsParallel(st *grid.Stats, width int) []int64 {
	g := gr.Grid
	costs := make([]int64, g.NumCells())
	eachRow(g.NY, width, func(first, stride int) {
		for cy := first; cy < g.NY; cy += stride {
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
	})
	return costs
}

// PairType returns the agreement type between cell (cx, cy) and its
// neighbour in direction d, read from a quartet containing the pair
// (SetPairType keeps every such quartet agreeing).
func (gr *Graph) PairType(cx, cy int, d grid.Dir) tuple.Set {
	dx, dy := d.Delta()
	gx, gy := max(cx, cx+dx), max(cy, cy+dy)
	return gr.Type(gx, gy, quartetPos(gx, gy, cx, cy), quartetPos(gx, gy, cx+dx, cy+dy))
}
