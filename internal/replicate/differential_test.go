package replicate

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/tuple"
)

// probePoints returns points that sit on every boundary the assignment
// distinguishes, plus random ones: for every cell, each combination of
// offsets 0, ε, l/2, l−ε and l from its west and south borders (cell
// borders, strip edges and corner-square edges); for every quartet,
// points exactly ε and 2ε from the reference point along both axes and
// along a 3-4-5 diagonal; and n uniform points over the world.
func probePoints(g *grid.Grid, rng *rand.Rand, n int) []geom.Point {
	var pts []geom.Point
	offs := []float64{0, g.Eps, g.Tile / 2, g.Tile - g.Eps, g.Tile}
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			r := g.CellRect(cx, cy)
			for _, u := range offs {
				for _, v := range offs {
					pts = append(pts, geom.Point{X: r.MinX + u, Y: r.MinY + v})
				}
			}
		}
	}
	var rays []geom.Point
	for _, d := range []float64{g.Eps, 2 * g.Eps} {
		rays = append(rays,
			geom.Point{X: d}, geom.Point{X: -d}, geom.Point{Y: d}, geom.Point{Y: -d},
			geom.Point{X: 0.6 * d, Y: 0.8 * d}, geom.Point{X: -0.8 * d, Y: 0.6 * d},
			geom.Point{X: -0.6 * d, Y: -0.8 * d}, geom.Point{X: 0.8 * d, Y: -0.6 * d})
	}
	for gy := 0; gy <= g.NY; gy++ {
		for gx := 0; gx <= g.NX; gx++ {
			ref := g.RefPoint(gx, gy)
			for _, o := range rays {
				if p := (geom.Point{X: ref.X + o.X, Y: ref.Y + o.Y}); g.Bounds.Contains(p) {
					pts = append(pts, p)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		pts = append(pts, geom.Point{
			X: g.Bounds.MinX + rng.Float64()*g.Bounds.Width(),
			Y: g.Bounds.MinY + rng.Float64()*g.Bounds.Height(),
		})
	}
	return pts
}

// assertMatchesReference checks that Adaptive and AdaptiveSimple return
// exactly the cells, in the same order, that the subgraph-walking
// reference returns, for both sets at every point.
func assertMatchesReference(t testing.TB, name string, gr *agreements.Graph, pts []geom.Point) {
	t.Helper()
	var got, want []int
	for _, p := range pts {
		for set := tuple.R; set <= tuple.S; set++ {
			got, want = Adaptive(gr, p, set, got[:0]), refAdaptive(gr, p, set, want[:0])
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Adaptive(%v, %v) = %v, reference %v", name, p, set, got, want)
			}
			got, want = AdaptiveSimple(gr, p, set, got[:0]), refAdaptiveSimple(gr, p, set, want[:0])
			if !slices.Equal(got, want) {
				t.Fatalf("%s: AdaptiveSimple(%v, %v) = %v, reference %v", name, p, set, got, want)
			}
		}
	}
}

// TestAssignMatchesReference compares the compiled assignment with the
// subgraph-walking reference point for point: on graphs built from
// pseudo-random pair types at resolutions 2, 2.5 and 3 (so that strips
// exist beside corner squares) and on sampled LPiB and DIFF graphs whose
// edge weights order Algorithm 1. Every world has border quartets with
// virtual cells.
func TestAssignMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, res := range []float64{2, 2.5, 3} {
		for trial := 0; trial < 8; trial++ {
			w, h := 1+rng.Intn(6), 1+rng.Intn(6)
			origin := geom.Point{X: float64(rng.Intn(11) - 5), Y: float64(rng.Intn(11) - 5)}
			g := grid.New(geom.Rect{MinX: origin.X, MinY: origin.Y, MaxX: origin.X + float64(w)*res, MaxY: origin.Y + float64(h)*res}, 1, res)
			pts := probePoints(g, rng, 400)
			assertMatchesReference(t, "types", agreements.BuildFromTypeFunc(g, hashTypeFunc(rng.Int63())), pts)

			st := grid.NewStats(g)
			for i := 0; i < 30*g.NumCells(); i++ {
				p := pts[rng.Intn(len(pts))]
				st.Add(tuple.Set(rng.Intn(2)), geom.Point{X: p.X + rng.NormFloat64()*0.3, Y: p.Y + rng.NormFloat64()*0.3})
			}
			for _, pol := range []agreements.Policy{agreements.LPiB, agreements.DIFF} {
				gr := agreements.Build(st, pol)
				assertMatchesReference(t, pol.String(), gr, pts)
			}
		}
	}
}

// FuzzAdaptiveAssign compares the compiled assignment with the reference
// at fuzzed points of fuzzed graphs: the seed picks the world, the pair
// types or sampled statistics, and the policy; x and y place the point as
// fractions of the world, so exact borders are reachable.
func FuzzAdaptiveAssign(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.5, 0.5)
	f.Add(int64(2), uint8(1), 0.0, 1.0)
	f.Add(int64(3), uint8(2), 0.25, 0.75)
	f.Add(int64(4), uint8(5), 1.0/3, 2.0/3)
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, fx, fy float64) {
		if math.IsNaN(fx) || math.IsNaN(fy) || math.IsInf(fx, 0) || math.IsInf(fy, 0) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		res := []float64{2, 2.5, 3}[shape%3]
		w, h := 1+int(shape/3)%5, 1+rng.Intn(5)
		g := grid.New(geom.Rect{MaxX: float64(w) * res, MaxY: float64(h) * res}, 1, res)
		var gr *agreements.Graph
		if seed%2 == 0 {
			gr = agreements.BuildFromTypeFunc(g, hashTypeFunc(seed))
		} else {
			st := grid.NewStats(g)
			for i := 0; i < 20*g.NumCells(); i++ {
				st.Add(tuple.Set(rng.Intn(2)), geom.Point{X: rng.Float64() * g.Bounds.MaxX, Y: rng.Float64() * g.Bounds.MaxY})
			}
			gr = agreements.Build(st, []agreements.Policy{agreements.LPiB, agreements.DIFF}[rng.Intn(2)])
		}
		p := geom.Point{X: math.Mod(math.Abs(fx), 1) * g.Bounds.MaxX, Y: math.Mod(math.Abs(fy), 1) * g.Bounds.MaxY}
		if fx == 1 {
			p.X = g.Bounds.MaxX
		}
		if fy == 1 {
			p.Y = g.Bounds.MaxY
		}
		assertMatchesReference(t, "fuzz", gr, []geom.Point{p})
	})
}
