package agreements

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/tuple"
)

// worldGrid returns a 3x3 grid of 4x4 cells with eps=1.
func worldGrid() *grid.Grid {
	return grid.New(geom.Rect{MinX: 0, MinY: 0, MaxX: 12, MaxY: 12}, 1, 4)
}

// forEachQuartet calls f with the subgraph of every quartet of gr, as
// Graph.Quartet rebuilds it.
func forEachQuartet(gr *Graph, f func(gx, gy int, s *Subgraph)) {
	for gy := 0; gy <= gr.Grid.NY; gy++ {
		for gx := 0; gx <= gr.Grid.NX; gx++ {
			s := gr.Quartet(gx, gy)
			f(gx, gy, &s)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if LPiB.String() != "LPiB" || DIFF.String() != "DIFF" || UniR.String() != "UNI(R)" || UniS.String() != "UNI(S)" {
		t.Fatal("policy names broken")
	}
}

func TestBuildRequiresAgreementGrid(t *testing.T) {
	g := grid.New(geom.Rect{MinX: 0, MinY: 0, MaxX: 12, MaxY: 12}, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Build must panic on l < 2eps grids")
		}
	}()
	Build(grid.NewStats(g), LPiB)
}

func TestUniversalPoliciesHaveNoMixedTriangles(t *testing.T) {
	g := worldGrid()
	st := grid.NewStats(g)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		st.Add(tuple.Set(rng.Intn(2)), geom.Point{X: rng.Float64() * 12, Y: rng.Float64() * 12})
	}
	for _, pol := range []Policy{UniR, UniS} {
		gr := Build(st, pol)
		wantType := tuple.R
		if pol == UniS {
			wantType = tuple.S
		}
		forEachQuartet(gr, func(gx, gy int, s *Subgraph) {
			if mixedTriangles(s) != 0 {
				t.Fatalf("%v: quartet (%d,%d) has mixed triangles", pol, gx, gy)
			}
			if s.AnyMarked() {
				t.Fatalf("%v: quartet (%d,%d) has marked edges", pol, gx, gy)
			}
			for i := grid.Pos(0); i < grid.NumPos; i++ {
				for j := grid.Pos(0); j < grid.NumPos; j++ {
					if i != j && s.Type(i, j) != wantType {
						t.Fatalf("%v: edge type = %v", pol, s.Type(i, j))
					}
				}
			}
		})
	}
}

func TestLPiBPicksFewerBoundaryPoints(t *testing.T) {
	g := worldGrid()
	st := grid.NewStats(g)
	// Cell (0,0) spans [0,4]x[0,4]; cell (1,0) spans [4,8]x[0,4].
	// Put 3 R points near their shared border and 1 S point near it.
	st.Add(tuple.R, geom.Point{X: 3.5, Y: 2})
	st.Add(tuple.R, geom.Point{X: 3.6, Y: 2.5})
	st.Add(tuple.R, geom.Point{X: 4.3, Y: 2}) // in cell (1,0), near border
	st.Add(tuple.S, geom.Point{X: 3.7, Y: 2})

	gr := Build(st, LPiB)
	// The pair (0,0)-(1,0) appears in quartet (1,1) as BL-BR.
	if got := gr.Type(1, 1, grid.BL, grid.BR); got != tuple.S {
		t.Fatalf("LPiB type = %v, want S (1 S candidate vs 3 R candidates)", got)
	}
	// The same pair in quartet (1,0) as TL-TR must agree.
	if got := gr.Type(1, 0, grid.TL, grid.TR); got != tuple.S {
		t.Fatalf("pair type differs between subgraphs: %v", got)
	}
}

func TestLPiBTieBreaksToR(t *testing.T) {
	g := worldGrid()
	st := grid.NewStats(g)
	gr := Build(st, LPiB) // empty stats: every pair ties 0-0
	if got := gr.Type(1, 1, grid.BL, grid.BR); got != tuple.R {
		t.Fatalf("empty tie should resolve to R, got %v", got)
	}
}

func TestDIFFPicksMinorityOfMostSkewedCell(t *testing.T) {
	g := worldGrid()
	st := grid.NewStats(g)
	// Cell (0,0): 1 R, 3 S -> diff 2. Cell (1,0): 2 R, 2 S -> diff 0.
	// DIFF decides by cell (0,0), whose minority set is R (Example 4.3).
	st.Add(tuple.R, geom.Point{X: 1, Y: 1})
	for i := 0; i < 3; i++ {
		st.Add(tuple.S, geom.Point{X: 1.5, Y: 1})
	}
	st.Add(tuple.R, geom.Point{X: 5, Y: 1})
	st.Add(tuple.R, geom.Point{X: 5, Y: 2})
	st.Add(tuple.S, geom.Point{X: 6, Y: 1})
	st.Add(tuple.S, geom.Point{X: 6, Y: 2})

	gr := Build(st, DIFF)
	if got := gr.Type(1, 1, grid.BL, grid.BR); got != tuple.R {
		t.Fatalf("DIFF type = %v, want R", got)
	}
}

func TestDIFFSkewedTowardR(t *testing.T) {
	g := worldGrid()
	st := grid.NewStats(g)
	// Cell (0,0): 5 R, 1 S -> minority S decides.
	for i := 0; i < 5; i++ {
		st.Add(tuple.R, geom.Point{X: 1, Y: 1})
	}
	st.Add(tuple.S, geom.Point{X: 1, Y: 1})
	gr := Build(st, DIFF)
	if got := gr.Type(1, 1, grid.BL, grid.BR); got != tuple.S {
		t.Fatalf("DIFF type = %v, want S", got)
	}
}

func TestEdgeWeight(t *testing.T) {
	g := worldGrid()
	st := grid.NewStats(g)
	// Agreement (0,0)-(1,0) will be R (LPiB: 1 R candidate vs 2 S candidates
	// ... so actually S wins; construct so R wins: 1 R candidate, 2 S).
	// Make R the minority on the border: 1 R near border, 2 S near border.
	st.Add(tuple.R, geom.Point{X: 3.5, Y: 2}) // candidate toward (1,0)
	st.Add(tuple.S, geom.Point{X: 3.5, Y: 2.2})
	st.Add(tuple.S, geom.Point{X: 3.5, Y: 2.4})
	// S points inside cell (1,0) for the weight product.
	st.Add(tuple.S, geom.Point{X: 6, Y: 2})
	st.Add(tuple.S, geom.Point{X: 6, Y: 2.5})
	// Make the (0,1)-(1,1) agreement S (2 R candidates, 0 S) so the
	// quartet is mixed: uniform quartets skip Algorithm 1 and never
	// materialise their edge weights.
	st.Add(tuple.R, geom.Point{X: 3.5, Y: 6})
	st.Add(tuple.R, geom.Point{X: 3.5, Y: 6.5})

	s := BuildQuartet(st, LPiB, OrderPaper, 1, 1)
	if got := s.Type(grid.BL, grid.BR); got != tuple.R {
		t.Fatalf("agreement type = %v, want R", got)
	}
	if got := s.Type(grid.TL, grid.TR); got != tuple.S {
		t.Fatalf("agreement type TL-TR = %v, want S (mixed quartet)", got)
	}
	// w(BL->BR) = 1 R candidate * 2 S points in (1,0) = 2.
	if got := s.Weight(grid.BL, grid.BR); got != 2 {
		t.Fatalf("weight BL->BR = %d, want 2", got)
	}
	// w(BR->BL) = 0 R candidates in (1,0) * 3 S points in (0,0) = 0.
	if got := s.Weight(grid.BR, grid.BL); got != 0 {
		t.Fatalf("weight BR->BL = %d, want 0", got)
	}
}

// Structural invariants of Algorithm 1 over every possible type
// configuration of a quartet (2^6 = 64).
func TestResolveExhaustiveInvariants(t *testing.T) {
	g := worldGrid()
	st := grid.NewStats(g)
	s := Build(st, LPiB).Quartet(1, 1) // interior quartet, all cells real

	for mask := 0; mask < 64; mask++ {
		var types [6]tuple.Set
		for b := 0; b < 6; b++ {
			if mask&(1<<b) != 0 {
				types[b] = tuple.S
			}
		}
		setTypes(&s, types)

		// (1) No edge is both marked and locked.
		for i := grid.Pos(0); i < grid.NumPos; i++ {
			for j := grid.Pos(0); j < grid.NumPos; j++ {
				if i == j {
					continue
				}
				if s.Marked(i, j) && s.Locked(i, j) {
					t.Fatalf("mask %06b: edge %v->%v both marked and locked", mask, i, j)
				}
			}
		}

		// (2) A marked edge lies in at least one mixed triangle with its
		// tail as apex.
		for i := grid.Pos(0); i < grid.NumPos; i++ {
			for j := grid.Pos(0); j < grid.NumPos; j++ {
				if i == j || !s.Marked(i, j) {
					continue
				}
				ok := false
				for _, k := range otherTwo(i, j) {
					if s.Type(i, k) == s.Type(i, j) && s.Type(j, k) != s.Type(i, j) {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("mask %06b: marked edge %v->%v has no eligible triangle", mask, i, j)
				}
			}
		}

		// (3) Every mixed triangle must be defused: its apex must not
		// replicate its duplicate-prone points to both other vertices,
		// i.e. at least one apex out-edge within the triangle is marked.
		forEachTriangle(func(a, b, c grid.Pos) {
			apex, x, y, mixed := apexOf(&s, a, b, c)
			if !mixed {
				return
			}
			if !s.Marked(apex, x) && !s.Marked(apex, y) {
				t.Fatalf("mask %06b: mixed triangle (%v,%v,%v) apex %v has no marked out-edge",
					mask, a, b, c, apex)
			}
		})

		// (4) An apex never has all three out-edges of its type marked:
		// its duplicate-prone points must still reach at least one cell
		// (either a side cell, or the diagonal via Algorithm 3's marked-
		// side-edge branch, which requires the diagonal edge unmarked).
		// Note that both out-edges of a single triangle MAY be marked —
		// the excluded points then travel to the quartet's fourth cell —
		// so the invariant is per apex across the subgraph, not per
		// triangle.
		for i := grid.Pos(0); i < grid.NumPos; i++ {
			adj := i.SideAdjacent()
			diag := i.Diagonal()
			allMarked := true
			for _, j := range []grid.Pos{adj[0], adj[1], diag} {
				if s.Type(i, j) != s.Type(i, adj[0]) {
					continue // different agreement type: not a replication path for the same set
				}
				if !s.Marked(i, j) {
					allMarked = false
				}
			}
			// Only meaningful when all three out-edges share a type.
			sameType := s.Type(i, adj[0]) == s.Type(i, adj[1]) && s.Type(i, adj[1]) == s.Type(i, diag)
			if sameType && allMarked {
				t.Fatalf("mask %06b: apex %v has all same-type out-edges marked", mask, i)
			}
		}
	}
}

// apexOf returns the apex of a mixed triangle: the vertex whose two
// triangle edges share a type while the opposite edge differs.
func apexOf(s *Subgraph, a, b, c grid.Pos) (apex, x, y grid.Pos, mixed bool) {
	tab, tac, tbc := s.Type(a, b), s.Type(a, c), s.Type(b, c)
	switch {
	case tab == tac && tab != tbc:
		return a, b, c, true
	case tab == tbc && tab != tac:
		return b, a, c, true
	case tac == tbc && tac != tab:
		return c, a, b, true
	default:
		return 0, 0, 0, false
	}
}

func TestPairTypeConsistentAcrossSubgraphs(t *testing.T) {
	g := worldGrid()
	st := grid.NewStats(g)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		st.Add(tuple.Set(rng.Intn(2)), geom.Point{X: rng.Float64() * 12, Y: rng.Float64() * 12})
	}
	for _, pol := range []Policy{LPiB, DIFF} {
		gr := Build(st, pol)
		// Every side-sharing pair appears in two quartets; the agreement
		// type must match.
		for cy := 0; cy < g.NY; cy++ {
			for cx := 0; cx < g.NX-1; cx++ {
				// Horizontal pair (cx,cy)-(cx+1,cy): quartets at
				// (cx+1,cy) [TL-TR] and (cx+1,cy+1) [BL-BR].
				a := gr.Type(cx+1, cy, grid.TL, grid.TR)
				b := gr.Type(cx+1, cy+1, grid.BL, grid.BR)
				if a != b {
					t.Fatalf("%v: horizontal pair (%d,%d): types %v vs %v", pol, cx, cy, a, b)
				}
			}
		}
		for cy := 0; cy < g.NY-1; cy++ {
			for cx := 0; cx < g.NX; cx++ {
				// Vertical pair (cx,cy)-(cx,cy+1): quartets at
				// (cx,cy+1) [BR-TR] and (cx+1,cy+1) [BL-TL].
				a := gr.Type(cx, cy+1, grid.BR, grid.TR)
				b := gr.Type(cx+1, cy+1, grid.BL, grid.TL)
				if a != b {
					t.Fatalf("%v: vertical pair (%d,%d): types %v vs %v", pol, cx, cy, a, b)
				}
			}
		}
	}
}

func TestEstimatedCostsIncludeReplication(t *testing.T) {
	g := worldGrid()
	st := grid.NewStats(g)
	// Cell (1,1) has 2 R and 3 S interior points.
	for i := 0; i < 2; i++ {
		st.Add(tuple.R, geom.Point{X: 6, Y: 6})
	}
	for i := 0; i < 3; i++ {
		st.Add(tuple.S, geom.Point{X: 6, Y: 6.2})
	}
	// Cell (0,1) has an R point near the border to (1,1).
	st.Add(tuple.R, geom.Point{X: 3.5, Y: 6})

	gr := Build(st, UniR) // replicate R everywhere
	costs := gr.EstimatedCosts(st)
	// Cell (1,1): R = 2 native + 1 replicated in, S = 3 -> cost 9.
	if got := costs[g.CellID(1, 1)]; got != 9 {
		t.Fatalf("cost(1,1) = %d, want 9", got)
	}
	// Cell (0,1): 1 R native, 0 S -> cost 0.
	if got := costs[g.CellID(0, 1)]; got != 0 {
		t.Fatalf("cost(0,1) = %d, want 0", got)
	}
}

func TestDirBetween(t *testing.T) {
	cases := []struct {
		i, j grid.Pos
		want grid.Dir
	}{
		{grid.BL, grid.BR, grid.DirE},
		{grid.BR, grid.BL, grid.DirW},
		{grid.BL, grid.TL, grid.DirN},
		{grid.TL, grid.BL, grid.DirS},
		{grid.BL, grid.TR, grid.DirNE},
		{grid.TR, grid.BL, grid.DirSW},
		{grid.BR, grid.TL, grid.DirNW},
		{grid.TL, grid.BR, grid.DirSE},
	}
	for _, tc := range cases {
		if got := dirBetween(tc.i, tc.j); got != tc.want {
			t.Errorf("dirBetween(%v,%v) = %v, want %v", tc.i, tc.j, got, tc.want)
		}
	}
}

func TestOtherTwo(t *testing.T) {
	got := otherTwo(grid.BL, grid.TR)
	if got != [2]grid.Pos{grid.BR, grid.TL} {
		t.Fatalf("otherTwo(BL,TR) = %v", got)
	}
	got = otherTwo(grid.BR, grid.TL)
	if got != [2]grid.Pos{grid.BL, grid.TR} {
		t.Fatalf("otherTwo(BR,TL) = %v", got)
	}
}

func TestBorderQuartetsResolveWithoutPanic(t *testing.T) {
	g := worldGrid()
	st := grid.NewStats(g)
	rng := rand.New(rand.NewSource(33))
	// Heavy sampling near world borders exercises virtual-cell quartets.
	for i := 0; i < 500; i++ {
		st.Add(tuple.Set(rng.Intn(2)), geom.Point{X: rng.Float64() * 0.5, Y: rng.Float64() * 12})
		st.Add(tuple.Set(rng.Intn(2)), geom.Point{X: rng.Float64() * 12, Y: 12 - rng.Float64()*0.5})
	}
	for _, pol := range []Policy{LPiB, DIFF} {
		gr := Build(st, pol)
		if len(gr.words) != g.NumQuartets() || len(gr.tables) != g.NumQuartets() {
			t.Fatalf("%v: %d words and %d tables, want %d", pol, len(gr.words), len(gr.tables), g.NumQuartets())
		}
	}
}

func TestOrderNamesAndBehaviour(t *testing.T) {
	if OrderPaper.String() != "paper" || OrderWeightOnly.String() != "weight-only" || OrderIndex.String() != "index" {
		t.Fatal("order names broken")
	}
	if LPiBStrict.String() != "LPiB-strict" {
		t.Fatal("strict policy name broken")
	}
	// All orders keep the structural invariants on a mixed configuration.
	g := worldGrid()
	st := grid.NewStats(g)
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 500; i++ {
		st.Add(tuple.Set(rng.Intn(2)), geom.Point{X: rng.Float64() * 12, Y: rng.Float64() * 12})
	}
	for _, order := range []Order{OrderPaper, OrderWeightOnly, OrderIndex} {
		gr := BuildOrdered(st, LPiB, order)
		forEachQuartet(gr, func(_, _ int, s *Subgraph) {
			for i := grid.Pos(0); i < grid.NumPos; i++ {
				for j := grid.Pos(0); j < grid.NumPos; j++ {
					if i != j && s.Marked(i, j) && s.Locked(i, j) {
						t.Fatalf("order %v: edge both marked and locked", order)
					}
				}
			}
		})
	}
}

func TestLPiBStrictIgnoresTotals(t *testing.T) {
	g := worldGrid()
	st := grid.NewStats(g)
	// Points in cell interiors only: boundary candidates are all zero,
	// but totals favour S.
	for i := 0; i < 5; i++ {
		st.Add(tuple.R, geom.Point{X: 2, Y: 2})
	}
	st.Add(tuple.S, geom.Point{X: 2, Y: 2})
	strict := Build(st, LPiBStrict)
	fallback := Build(st, LPiB)
	if got := strict.Type(1, 1, grid.BL, grid.BR); got != tuple.R {
		t.Fatalf("strict tie should resolve to R, got %v", got)
	}
	if got := fallback.Type(1, 1, grid.BL, grid.BR); got != tuple.S {
		t.Fatalf("fallback should use totals and pick S, got %v", got)
	}
}

// TestSetPairTypeKeepsSubgraphsAgreeing checks that a graph changed
// only through SetPairType is a function of its pair types. It starts
// from a graph built from types alone and flips random pairs — side and
// diagonal, in canonical and opposite directions — on grids at l = 2ε
// and l = 2.5ε. After every flip each subgraph containing a pair reports
// the same type, the model's (Def. 4.2), SetPairType returned exactly the
// corners of the subgraphs holding the flipped pair, and every quartet's
// word (types, marks, locks) and compiled assignment table equal those of
// BuildFromTypeFunc over the model's types.
func TestSetPairTypeKeepsSubgraphsAgreeing(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, res := range []float64{2, 2.5} {
		w, h := 4+rng.Float64()*16, 4+rng.Float64()*16
		g := grid.New(geom.Rect{MaxX: w, MaxY: h}, 1, res)
		model := map[[2]int]tuple.Set{}
		key := func(ci, cj int) [2]int { return [2]int{min(ci, cj), max(ci, cj)} }
		typeOf := func(ci, cj int) tuple.Set { return model[key(ci, cj)] } // R when unset
		for cy := 0; cy < g.NY; cy++ {
			for cx := 0; cx < g.NX; cx++ {
				for d := grid.Dir(0); d < grid.NumDirs; d++ {
					if nb := g.Neighbor(cx, cy, d); nb != grid.NoCell {
						model[key(g.CellID(cx, cy), nb)] = tuple.Set(rng.Intn(2))
					}
				}
			}
		}
		gr := BuildFromTypeFunc(g, typeOf)
		flips := 0
		for flips < 250 {
			cx, cy, d := rng.Intn(g.NX), rng.Intn(g.NY), grid.Dir(rng.Intn(int(grid.NumDirs)))
			ci, nb := g.CellID(cx, cy), g.Neighbor(cx, cy, d)
			if nb == grid.NoCell {
				continue
			}
			flips++
			want := tuple.Set(rng.Intn(2))
			model[key(ci, nb)] = want
			corners := gr.SetPairType(cx, cy, d, want)
			var holding [][2]int
			for gy := 0; gy <= g.NY; gy++ {
				for gx := 0; gx <= g.NX; gx++ {
					s := gr.Quartet(gx, gy)
					for i := grid.Pos(0); i < grid.NumPos; i++ {
						for j := i + 1; j < grid.NumPos; j++ {
							a, b := s.Cells[i], s.Cells[j]
							if a == grid.NoCell || b == grid.NoCell {
								continue
							}
							if got := s.Type(i, j); got != model[key(a, b)] || s.Type(j, i) != got {
								t.Fatalf("res %v flip %d: quartet (%d,%d) types cells %d-%d %v, model %v", res, flips, gx, gy, a, b, got, model[key(a, b)])
							}
							if key(a, b) == key(ci, nb) {
								holding = append(holding, [2]int{gx, gy})
							}
						}
					}
				}
			}
			wantN := 2
			if dx, dy := d.Delta(); dx != 0 && dy != 0 {
				wantN = 1
			}
			slices.SortFunc(holding, func(a, b [2]int) int { return cmp.Compare(a[1]*(g.NX+1)+a[0], b[1]*(g.NX+1)+b[0]) })
			if len(holding) != wantN || !slices.Equal(holding, corners) {
				t.Fatalf("res %v flip %d: pair %d-%d held by quartets %v, SetPairType rebuilt %v", res, flips, ci, nb, holding, corners)
			}
			fresh := BuildFromTypeFunc(g, typeOf)
			for qi := range gr.words {
				if got, exp := gr.words[qi], fresh.words[qi]; got != exp {
					t.Fatalf("res %v flip %d: quartet %d word %030b differs from BuildFromTypeFunc over the same types: %030b", res, flips, qi, got, exp)
				}
			}
			if !slices.Equal(gr.tables, fresh.tables) {
				t.Fatalf("res %v flip %d: compiled tables differ from BuildFromTypeFunc over the same types", res, flips)
			}
		}
	}
}

// mixedTriangles returns the number of triangles of s that contain both
// agreement types — the configurations that require marking.
func mixedTriangles(s *Subgraph) int {
	n := 0
	forEachTriangle(func(a, b, c grid.Pos) {
		t1, t2, t3 := s.Type(a, b), s.Type(a, c), s.Type(b, c)
		if t1 != t2 || t2 != t3 {
			n++
		}
	})
	return n
}

// forEachTriangle visits the four 3-vertex subsets of a quartet.
func forEachTriangle(f func(a, b, c grid.Pos)) {
	f(grid.BL, grid.BR, grid.TL)
	f(grid.BL, grid.BR, grid.TR)
	f(grid.BL, grid.TL, grid.TR)
	f(grid.BR, grid.TL, grid.TR)
}

// setTypes overrides the agreement types of the unordered pairs of s and
// re-runs Algorithm 1. types is indexed (BL,BR), (BL,TL), (BL,TR),
// (BR,TL), (BR,TR), (TL,TR).
func setTypes(s *Subgraph, types [6]tuple.Set) {
	idx := 0
	for i := grid.Pos(0); i < grid.NumPos; i++ {
		for j := i + 1; j < grid.NumPos; j++ {
			s.setType(i, j, types[idx])
			idx++
		}
	}
	s.clearMarks()
	resolve(s)
}

// TestBuildParallelMatchesSerial: building on 2, 3 or 8 goroutines gives
// the words, tables and cost estimates of the one-goroutine build, for
// every statistics policy and edge order, on grids of 1, 2 and 3 cell
// rows (2–4 quartet rows, fewer than some widths) and of 300. With one
// cell row every quartet holds virtual cells, so nothing is marked.
func TestBuildParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, dims := range [][2]int{{9, 1}, {7, 2}, {5, 3}, {24, 300}} {
		nx, ny := dims[0], dims[1]
		g := grid.New(geom.Rect{MaxX: 2 * float64(nx), MaxY: 2 * float64(ny)}, 1, 2)
		if g.NX != nx || g.NY != ny {
			t.Fatalf("grid is %d×%d, want %d×%d", g.NX, g.NY, nx, ny)
		}
		st := grid.NewStats(g)
		// R thins out eastward and S northward, so pair types mix.
		for i := 0; i < 20*nx*ny; i++ {
			p := geom.Point{X: rng.Float64() * 2 * float64(nx), Y: rng.Float64() * 2 * float64(ny)}
			set := tuple.R
			if rng.Float64()*float64(nx) < p.X/2 || rng.Float64()*float64(ny) > p.Y/2 {
				set = tuple.S
			}
			st.Add(set, p)
		}
		for _, pol := range []Policy{LPiB, DIFF, UniR, LPiBStrict} {
			for _, order := range []Order{OrderPaper, OrderWeightOnly, OrderIndex} {
				serial := BuildParallel(st, pol, order, 1)
				serialCosts := serial.EstimatedCostsParallel(st, 1)
				if marked, _ := serial.EdgeCounts(); marked == 0 && pol != UniR && ny > 1 {
					t.Fatalf("%d×%d %v %v: nothing marked, so Algorithm 1 went untested", nx, ny, pol, order)
				}
				for _, width := range []int{2, 3, 8} {
					gr := BuildParallel(st, pol, order, width)
					what := fmt.Sprintf("%d×%d %v %v width %d", nx, ny, pol, order, width)
					if !slices.Equal(gr.words, serial.words) || !slices.Equal(gr.tables, serial.tables) {
						t.Fatalf("%s: words or tables differ from the serial build", what)
					}
					if !slices.Equal(gr.EstimatedCostsParallel(st, width), serialCosts) {
						t.Fatalf("%s: cost estimates differ from the serial ones", what)
					}
				}
			}
		}
	}
}
