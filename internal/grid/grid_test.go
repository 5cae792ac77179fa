package grid

import (
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/tuple"
)

func testGrid() *Grid {
	// 10x10 world, eps=1, tile=4 -> 3x3 cells (last row/col overhang).
	return New(geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 1, 4)
}

func TestNewDimensions(t *testing.T) {
	g := testGrid()
	if g.NX != 3 || g.NY != 3 {
		t.Fatalf("grid dims = %dx%d, want 3x3", g.NX, g.NY)
	}
	if g.Tile != 4 {
		t.Fatalf("tile = %v, want 4", g.Tile)
	}
	if !g.SupportsAgreements() {
		t.Fatal("tile=4, eps=1 must support agreements")
	}
	eg := New(geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 1, 1)
	if eg.SupportsAgreements() {
		t.Fatal("eps-grid must not support agreements")
	}
	if eg.NX != 10 || eg.NY != 10 {
		t.Fatalf("eps-grid dims = %dx%d, want 10x10", eg.NX, eg.NY)
	}
}

func TestNewExactDivision(t *testing.T) {
	g := New(geom.Rect{MinX: 0, MinY: 0, MaxX: 8, MaxY: 12}, 1, 2)
	if g.NX != 4 || g.NY != 6 {
		t.Fatalf("dims = %dx%d, want 4x6", g.NX, g.NY)
	}
}

func TestNewPanics(t *testing.T) {
	cases := []func(){
		func() { New(geom.Rect{MaxX: 1, MaxY: 1}, 0, 2) },
		func() { New(geom.Rect{MaxX: 1, MaxY: 1}, 1, 0) },
		func() { New(geom.EmptyRect(), 1, 2) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestLocateAndClamp(t *testing.T) {
	g := testGrid()
	tests := []struct {
		p      geom.Point
		cx, cy int
	}{
		{geom.Point{X: 0, Y: 0}, 0, 0},
		{geom.Point{X: 3.9, Y: 3.9}, 0, 0},
		{geom.Point{X: 4, Y: 4}, 1, 1},
		{geom.Point{X: 9.9, Y: 9.9}, 2, 2},
		{geom.Point{X: 10, Y: 10}, 2, 2},    // max border clamps into grid
		{geom.Point{X: -5, Y: 50}, 0, 2},    // out of bounds clamps
		{geom.Point{X: 11.9, Y: 0.5}, 2, 0}, // grid overhang region
	}
	for _, tc := range tests {
		cx, cy := g.Locate(tc.p)
		if cx != tc.cx || cy != tc.cy {
			t.Errorf("Locate(%v) = (%d,%d), want (%d,%d)", tc.p, cx, cy, tc.cx, tc.cy)
		}
	}
}

func TestCellIDRoundTrip(t *testing.T) {
	g := testGrid()
	seen := map[int]bool{}
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			id := g.CellID(cx, cy)
			if id < 0 || id >= g.NumCells() {
				t.Fatalf("CellID(%d,%d) = %d out of range", cx, cy, id)
			}
			if seen[id] {
				t.Fatalf("duplicate cell id %d", id)
			}
			seen[id] = true
			bx, by := g.CellCoords(id)
			if bx != cx || by != cy {
				t.Fatalf("CellCoords(%d) = (%d,%d), want (%d,%d)", id, bx, by, cx, cy)
			}
		}
	}
	for _, bad := range [][2]int{{-1, 0}, {0, -1}, {3, 0}, {0, 3}} {
		if got := g.CellID(bad[0], bad[1]); got != NoCell {
			t.Errorf("CellID%v = %d, want NoCell", bad, got)
		}
	}
}

func TestCellRectTiles(t *testing.T) {
	g := testGrid()
	r := g.CellRect(1, 2)
	want := geom.Rect{MinX: 4, MinY: 8, MaxX: 8, MaxY: 12}
	if r != want {
		t.Fatalf("CellRect(1,2) = %+v, want %+v", r, want)
	}
}

func TestLocalUV(t *testing.T) {
	g := testGrid()
	u, v := g.LocalUV(geom.Point{X: 5.5, Y: 9}, 1, 2)
	if u != 1.5 || v != 1 {
		t.Fatalf("LocalUV = (%v,%v), want (1.5,1)", u, v)
	}
}

func TestDirHelpers(t *testing.T) {
	for d := Dir(0); d < NumDirs; d++ {
		o := d.Opposite()
		if o.Opposite() != d {
			t.Errorf("Opposite(Opposite(%v)) = %v", d, o.Opposite())
		}
		dx, dy := d.Delta()
		ox, oy := o.Delta()
		if dx != -ox || dy != -oy {
			t.Errorf("Delta(%v)=(%d,%d) not negated by Delta(%v)=(%d,%d)", d, dx, dy, o, ox, oy)
		}
		if dx == 0 && dy == 0 {
			t.Errorf("Delta(%v) is zero", d)
		}
	}
}

func TestPosHelpers(t *testing.T) {
	if BL.Diagonal() != TR || BR.Diagonal() != TL || TL.Diagonal() != BR || TR.Diagonal() != BL {
		t.Fatal("Diagonal mapping broken")
	}
	for p := Pos(0); p < NumPos; p++ {
		adj := p.SideAdjacent()
		if adj[0] == p || adj[1] == p || adj[0] == adj[1] {
			t.Fatalf("SideAdjacent(%v) = %v invalid", p, adj)
		}
		if adj[0] == p.Diagonal() || adj[1] == p.Diagonal() {
			t.Fatalf("SideAdjacent(%v) contains diagonal", p)
		}
		if !IsDiagonalPair(p, p.Diagonal()) {
			t.Fatalf("IsDiagonalPair(%v, diag) = false", p)
		}
		if IsDiagonalPair(p, adj[0]) {
			t.Fatalf("IsDiagonalPair(%v, side-adjacent) = true", p)
		}
	}
}

func TestQuartetCellsAndCornerQuartet(t *testing.T) {
	g := testGrid()
	// Interior quartet (1,1): all four cells real.
	cells := g.QuartetCells(1, 1)
	want := [NumPos]int{
		BL: g.CellID(0, 0), BR: g.CellID(1, 0),
		TL: g.CellID(0, 1), TR: g.CellID(1, 1),
	}
	if cells != want {
		t.Fatalf("QuartetCells(1,1) = %v, want %v", cells, want)
	}
	// Boundary quartet (0,0): only TR is real.
	cells = g.QuartetCells(0, 0)
	if cells[BL] != NoCell || cells[BR] != NoCell || cells[TL] != NoCell {
		t.Fatalf("border quartet should have virtual cells: %v", cells)
	}
	if cells[TR] != g.CellID(0, 0) {
		t.Fatalf("border quartet TR = %d", cells[TR])
	}

	// CornerQuartet must be consistent with QuartetCells: the cell id
	// appears at the returned Pos.
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			for c := Corner(0); c < 4; c++ {
				gx, gy, pos := g.CornerQuartet(cx, cy, c)
				if got := g.QuartetCells(gx, gy)[pos]; got != g.CellID(cx, cy) {
					t.Fatalf("cell (%d,%d) corner %v: quartet (%d,%d) pos %v holds %d, want %d",
						cx, cy, c, gx, gy, pos, got, g.CellID(cx, cy))
				}
			}
		}
	}
}

func TestQuartetIDRoundTrip(t *testing.T) {
	g := testGrid()
	seen := map[int]bool{}
	for gy := 0; gy <= g.NY; gy++ {
		for gx := 0; gx <= g.NX; gx++ {
			id := g.QuartetID(gx, gy)
			if seen[id] {
				t.Fatalf("duplicate quartet id %d", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != g.NumQuartets() {
		t.Fatalf("enumerated %d quartets, NumQuartets() = %d", len(seen), g.NumQuartets())
	}
}

func TestRefPoint(t *testing.T) {
	g := testGrid()
	if p := g.RefPoint(1, 2); p != (geom.Point{X: 4, Y: 8}) {
		t.Fatalf("RefPoint(1,2) = %v", p)
	}
}

func TestClassifyKinds(t *testing.T) {
	g := testGrid() // tile 4, eps 1; cell (1,1) spans [4,8]x[4,8]
	tests := []struct {
		p    geom.Point
		want Area
	}{
		{geom.Point{X: 6, Y: 6}, Area{Kind: AreaInterior}},
		{geom.Point{X: 4.5, Y: 4.5}, Area{Kind: AreaCorner, Corner: SW}},
		{geom.Point{X: 7.5, Y: 4.5}, Area{Kind: AreaCorner, Corner: SE}},
		{geom.Point{X: 4.5, Y: 7.5}, Area{Kind: AreaCorner, Corner: NW}},
		{geom.Point{X: 7.5, Y: 7.5}, Area{Kind: AreaCorner, Corner: NE}},
		{geom.Point{X: 4.5, Y: 6}, Area{Kind: AreaStrip, Side: West}},
		{geom.Point{X: 7.5, Y: 6}, Area{Kind: AreaStrip, Side: East}},
		{geom.Point{X: 6, Y: 4.5}, Area{Kind: AreaStrip, Side: South}},
		{geom.Point{X: 6, Y: 7.5}, Area{Kind: AreaStrip, Side: North}},
	}
	for _, tc := range tests {
		cx, cy, area := g.Classify(tc.p)
		if cx != 1 || cy != 1 {
			t.Errorf("Classify(%v) located cell (%d,%d), want (1,1)", tc.p, cx, cy)
		}
		if area != tc.want {
			t.Errorf("Classify(%v) = %+v, want %+v", tc.p, area, tc.want)
		}
	}
}

// Classification semantics: corner c means within eps of both side
// neighbours adjacent to c; strip s means within eps of side s's
// neighbour only; interior means within eps of no neighbour rect edge.
func TestClassifySemanticsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := New(geom.Rect{MinX: -5, MinY: 3, MaxX: 45, MaxY: 40}, 0.7, 2.5)
	for i := 0; i < 5000; i++ {
		p := geom.Point{
			X: g.Bounds.MinX + rng.Float64()*g.Bounds.Width(),
			Y: g.Bounds.MinY + rng.Float64()*g.Bounds.Height(),
		}
		cx, cy, area := g.Classify(p)
		u, v := g.LocalUV(p, cx, cy)
		nearW, nearE := u <= g.Eps, g.Tile-u <= g.Eps
		nearS, nearN := v <= g.Eps, g.Tile-v <= g.Eps
		nNear := 0
		for _, b := range []bool{nearW, nearE, nearS, nearN} {
			if b {
				nNear++
			}
		}
		switch area.Kind {
		case AreaInterior:
			if nNear != 0 {
				t.Fatalf("point %v interior but near %d borders", p, nNear)
			}
		case AreaStrip:
			if nNear != 1 {
				t.Fatalf("point %v strip but near %d borders", p, nNear)
			}
		case AreaCorner:
			if nNear != 2 {
				t.Fatalf("point %v corner but near %d borders", p, nNear)
			}
			var wantH, wantV bool
			switch area.Corner {
			case SW:
				wantH, wantV = nearW, nearS
			case SE:
				wantH, wantV = nearE, nearS
			case NW:
				wantH, wantV = nearW, nearN
			case NE:
				wantH, wantV = nearE, nearN
			}
			if !wantH || !wantV {
				t.Fatalf("point %v corner %v inconsistent with borders", p, area.Corner)
			}
		}
	}
}

func TestStripQuartetsNearestFirst(t *testing.T) {
	g := testGrid() // cell (1,1) spans [4,8]x[4,8]
	// Point near the east border, below the middle: nearest quartet is SE
	// corner (2,1); the far one is NE corner (2,2).
	p := geom.Point{X: 7.5, Y: 5}
	q1x, q1y, pos1, q2x, q2y, pos2 := g.StripQuartets(p, 1, 1, East)
	if q1x != 2 || q1y != 1 || pos1 != TL {
		t.Fatalf("nearest strip quartet = (%d,%d) pos %v", q1x, q1y, pos1)
	}
	if q2x != 2 || q2y != 2 || pos2 != BL {
		t.Fatalf("far strip quartet = (%d,%d) pos %v", q2x, q2y, pos2)
	}
	// Same point mirrored above the middle flips the order.
	p = geom.Point{X: 7.5, Y: 7}
	q1x, q1y, _, q2x, q2y, _ = g.StripQuartets(p, 1, 1, East)
	if q1x != 2 || q1y != 2 || q2x != 2 || q2y != 1 {
		t.Fatalf("mirrored strip quartets = (%d,%d),(%d,%d)", q1x, q1y, q2x, q2y)
	}
}

func TestStripQuartetsAllSidesNearest(t *testing.T) {
	g := testGrid()
	// For every side and random strip point, the first quartet's reference
	// point must not be farther than the second's.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		p := geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		cx, cy, area := g.Classify(p)
		if area.Kind != AreaStrip {
			continue
		}
		q1x, q1y, pos1, q2x, q2y, pos2 := g.StripQuartets(p, cx, cy, area.Side)
		d1 := p.SqDist(g.RefPoint(q1x, q1y))
		d2 := p.SqDist(g.RefPoint(q2x, q2y))
		if d1 > d2 {
			t.Fatalf("StripQuartets order wrong for %v: d1=%v > d2=%v", p, d1, d2)
		}
		id := g.CellID(cx, cy)
		if g.QuartetCells(q1x, q1y)[pos1] != id || g.QuartetCells(q2x, q2y)[pos2] != id {
			t.Fatalf("StripQuartets positions inconsistent for %v", p)
		}
	}
}

func TestAdjacentCornerQuartets(t *testing.T) {
	g := testGrid()
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			id := g.CellID(cx, cy)
			for c := Corner(0); c < 4; c++ {
				gx, gy, _ := g.CornerQuartet(cx, cy, c)
				q1x, q1y, pos1, q2x, q2y, pos2 := g.AdjacentCornerQuartets(cx, cy, c)
				// Both must contain the cell at the stated position.
				if g.QuartetCells(q1x, q1y)[pos1] != id || g.QuartetCells(q2x, q2y)[pos2] != id {
					t.Fatalf("cell (%d,%d) corner %v: adjacent quartets positions wrong", cx, cy, c)
				}
				// Both must be distinct from q and from each other, and at
				// distance exactly one tile from q's reference point.
				if (q1x == gx && q1y == gy) || (q2x == gx && q2y == gy) || (q1x == q2x && q1y == q2y) {
					t.Fatalf("cell (%d,%d) corner %v: adjacent quartets not distinct", cx, cy, c)
				}
				for _, q := range [][2]int{{q1x, q1y}, {q2x, q2y}} {
					d := g.RefPoint(q[0], q[1]).Dist(g.RefPoint(gx, gy))
					if d != g.Tile {
						t.Fatalf("adjacent quartet at distance %v, want %v", d, g.Tile)
					}
				}
			}
		}
	}
}

func TestReplicationTargetsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, res := range []float64{1, 2, 3} {
		g := New(geom.Rect{MinX: 0, MinY: 0, MaxX: 20, MaxY: 20}, 1, res)
		for i := 0; i < 3000; i++ {
			p := geom.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
			got := g.ReplicationTargets(p, nil)
			gotSet := map[int]bool{}
			for _, id := range got {
				if gotSet[id] {
					t.Fatalf("duplicate target %d for %v", id, p)
				}
				gotSet[id] = true
			}
			own := func() int { cx, cy := g.Locate(p); return g.CellID(cx, cy) }()
			for cy := 0; cy < g.NY; cy++ {
				for cx := 0; cx < g.NX; cx++ {
					id := g.CellID(cx, cy)
					want := id != own && g.CellRect(cx, cy).WithinMinDist(p, g.Eps)
					if want != gotSet[id] {
						t.Fatalf("res %v point %v cell %d: target=%v, want %v", res, p, id, gotSet[id], want)
					}
				}
			}
		}
	}
}

func TestStatsBoundaryCounts(t *testing.T) {
	g := testGrid()
	st := NewStats(g)
	// Point in cell (1,1) near the SW corner of the cell: candidate for W,
	// S and (if close enough to the corner) SW neighbours.
	st.Add(tuple.R, geom.Point{X: 4.5, Y: 4.5}) // dw=0.5, ds=0.5, hyp=0.707<=1
	st.Add(tuple.S, geom.Point{X: 4.9, Y: 4.9}) // dw=0.9, ds=0.9, hyp=1.27>1
	st.Add(tuple.R, geom.Point{X: 6, Y: 6})     // interior

	id := g.CellID(1, 1)
	cs := st.At(id)
	if cs.Total[tuple.R] != 2 || cs.Total[tuple.S] != 1 {
		t.Fatalf("totals = %v", cs.Total)
	}
	if cs.Boundary[DirW][tuple.R] != 1 || cs.Boundary[DirS][tuple.R] != 1 || cs.Boundary[DirSW][tuple.R] != 1 {
		t.Fatalf("R boundary counts wrong: %+v", cs.Boundary)
	}
	if cs.Boundary[DirW][tuple.S] != 1 || cs.Boundary[DirSW][tuple.S] != 0 {
		t.Fatalf("S boundary counts wrong: %+v", cs.Boundary)
	}
	if cs.Boundary[DirE][tuple.R] != 0 || cs.Boundary[DirN][tuple.S] != 0 {
		t.Fatalf("far-side boundary counts should be zero: %+v", cs.Boundary)
	}
}

// The per-direction boundary counts must agree with the MINDIST-based
// universal replication rule on grids that support agreements.
func TestStatsMatchesReplicationTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := New(geom.Rect{MinX: 0, MinY: 0, MaxX: 30, MaxY: 17}, 0.9, 2)
	for i := 0; i < 4000; i++ {
		p := geom.Point{X: rng.Float64() * 30, Y: rng.Float64() * 17}
		st := NewStats(g)
		st.Add(tuple.S, p)
		cx, cy := g.Locate(p)
		cs := st.At(g.CellID(cx, cy))
		var fromStats []int
		for d := Dir(0); d < NumDirs; d++ {
			if cs.Boundary[d][tuple.S] > 0 {
				if id := g.Neighbor(cx, cy, d); id != NoCell {
					fromStats = append(fromStats, id)
				}
			}
		}
		want := g.ReplicationTargets(p, nil)
		if len(fromStats) != len(want) {
			t.Fatalf("point %v: stats say %v targets, rule says %v", p, fromStats, want)
		}
		wantSet := map[int]bool{}
		for _, id := range want {
			wantSet[id] = true
		}
		for _, id := range fromStats {
			if !wantSet[id] {
				t.Fatalf("point %v: stats target %d not in rule targets %v", p, id, want)
			}
		}
	}
}

func TestStatsVirtualCell(t *testing.T) {
	g := testGrid()
	st := NewStats(g)
	if cs := st.At(NoCell); cs != (CellStats{}) {
		t.Fatal("virtual cell stats must be zero")
	}
	if st.Candidates(NoCell, DirW, tuple.R) != 0 {
		t.Fatal("virtual cell candidates must be zero")
	}
	if st.EstimatedCost(NoCell) != 0 {
		t.Fatal("virtual cell cost must be zero")
	}
}

func TestEstimatedCost(t *testing.T) {
	g := testGrid()
	st := NewStats(g)
	p := geom.Point{X: 6, Y: 6}
	for i := 0; i < 5; i++ {
		st.Add(tuple.R, p)
	}
	for i := 0; i < 3; i++ {
		st.Add(tuple.S, p)
	}
	if got := st.EstimatedCost(g.CellID(1, 1)); got != 15 {
		t.Fatalf("EstimatedCost = %d, want 15", got)
	}
	if got := st.EstimatedCost(g.CellID(0, 0)); got != 0 {
		t.Fatalf("empty cell cost = %d, want 0", got)
	}
}

func TestAddAll(t *testing.T) {
	g := testGrid()
	st := NewStats(g)
	ts := tuple.FromPoints([]geom.Point{{X: 1, Y: 1}, {X: 5, Y: 5}, {X: 9, Y: 9}}, 0)
	st.AddAll(tuple.R, ts)
	total := int32(0)
	for _, cs := range st.Cells {
		total += cs.Total[tuple.R]
	}
	if total != 3 {
		t.Fatalf("AddAll recorded %d points, want 3", total)
	}
}
