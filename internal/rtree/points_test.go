package rtree

import (
	"math/rand"
	"slices"
	"testing"

	"spatialjoin/internal/geom"
)

// The Sedona-style kernel indexes points as degenerate boxes and probes
// with ε-squares followed by the closed distance test; these tests pin
// BoxTree on that use.

func randomPoints(rng *rand.Rand, n int, extent float64) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = geom.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	}
	return out
}

// pointBoxes indexes pts as degenerate boxes, Ref = position.
func pointBoxes(pts []geom.Point) []BoxEntry {
	out := make([]BoxEntry, len(pts))
	for i, p := range pts {
		out[i] = BoxEntry{Rect: geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}, Ref: int32(i)}
	}
	return out
}

// within returns, ascending, the Ref of every indexed point within eps
// of c: the ε-square probe plus the closed test the kernel applies.
func within(tr *BoxTree, pts []geom.Point, c geom.Point, eps float64) []int32 {
	var out []int32
	tr.SearchIntersects(geom.Rect{MinX: c.X - eps, MinY: c.Y - eps, MaxX: c.X + eps, MaxY: c.Y + eps}, func(e BoxEntry) {
		if pts[e.Ref].SqDist(c) <= eps*eps {
			out = append(out, e.Ref)
		}
	})
	slices.Sort(out)
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := BuildBoxes(nil, 0)
	if tr.Size() != 0 || tr.Height() != 0 {
		t.Fatalf("empty tree size/height = %d/%d", tr.Size(), tr.Height())
	}
	if !tr.Bounds().IsEmpty() {
		t.Fatal("empty tree bounds must be empty")
	}
	if got := within(tr, nil, geom.Point{}, 1); len(got) != 0 {
		t.Fatalf("visit on empty tree: %v", got)
	}
}

func TestSingleEntry(t *testing.T) {
	pts := []geom.Point{{X: 3, Y: 4}}
	tr := BuildBoxes(pointBoxes(pts), 4)
	if tr.Size() != 1 || tr.Height() != 1 {
		t.Fatalf("size/height = %d/%d", tr.Size(), tr.Height())
	}
	if hits := within(tr, pts, geom.Point{}, 5); len(hits) != 1 || hits[0] != 0 {
		t.Fatalf("point at exactly eps: hits = %v", hits)
	}
	if hits := within(tr, pts, geom.Point{}, 4.9); len(hits) != 0 {
		t.Fatalf("point beyond eps reported: %v", hits)
	}
}

func TestWithinMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{10, 100, 5000} {
		for _, fanout := range []int{2, 4, 16, 64} {
			pts := randomPoints(rng, n, 50)
			tr := BuildBoxes(pointBoxes(pts), fanout)
			if tr.Size() != n {
				t.Fatalf("size = %d, want %d", tr.Size(), n)
			}
			for q := 0; q < 50; q++ {
				c := geom.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
				eps := rng.Float64() * 5
				var want []int32
				for i, p := range pts {
					if p.WithinDist(c, eps) {
						want = append(want, int32(i))
					}
				}
				if got := within(tr, pts, c, eps); !slices.Equal(got, want) {
					t.Fatalf("n=%d fanout=%d: hits %v, want %v", n, fanout, got, want)
				}
			}
		}
	}
}

func TestSearchRectMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, 3000, 30)
	tr := BuildBoxes(pointBoxes(pts), 8)
	for q := 0; q < 50; q++ {
		r := geom.NewRect(rng.Float64()*30, rng.Float64()*30, rng.Float64()*30, rng.Float64()*30)
		want := 0
		for _, p := range pts {
			if r.Contains(p) {
				want++
			}
		}
		got := 0
		tr.SearchIntersects(r, func(BoxEntry) { got++ })
		if got != want {
			t.Fatalf("query %d: got %d, want %d", q, got, want)
		}
	}
}

func TestBoundsCoverAll(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(rng, 1000, 20)
	b := BuildBoxes(pointBoxes(pts), 16).Bounds()
	for _, p := range pts {
		if !b.Contains(p) {
			t.Fatalf("bounds %+v exclude %v", b, p)
		}
	}
}

func TestHeightLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := BuildBoxes(pointBoxes(randomPoints(rng, 10_000, 100)), 16)
	// 10000 points, fanout 16: ceil(log16(10000/16)) + 1 levels ~ 4.
	if h := tr.Height(); h < 2 || h > 5 {
		t.Fatalf("height = %d, want 2..5", h)
	}
}

func TestBuildDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	es := pointBoxes(randomPoints(rng, 500, 10))
	before := slices.Clone(es)
	BuildBoxes(es, 8)
	if !slices.Equal(es, before) {
		t.Fatal("BuildBoxes reordered its input")
	}
}

func TestDuplicatePositions(t *testing.T) {
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Point{X: 1, Y: 1}
	}
	tr := BuildBoxes(pointBoxes(pts), 4)
	if got := within(tr, pts, geom.Point{X: 1, Y: 1}, 0); len(got) != 100 {
		t.Fatalf("co-located points: got %d hits, want 100", len(got))
	}
}
