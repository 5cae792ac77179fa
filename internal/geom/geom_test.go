package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 2}, Point{1, 2}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Dist(tc.q); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Dist(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want)
			}
			if got := tc.p.SqDist(tc.q); math.Abs(got-tc.want*tc.want) > 1e-9 {
				t.Errorf("SqDist(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want*tc.want)
			}
		})
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Point{ax, ay}, Point{bx, by}
		return a.SqDist(b) == b.SqDist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWithinDist(t *testing.T) {
	p, q := Point{0, 0}, Point{3, 4}
	if !p.WithinDist(q, 5) {
		t.Error("distance exactly eps must satisfy WithinDist (<=)")
	}
	if p.WithinDist(q, 4.999) {
		t.Error("distance above eps must not satisfy WithinDist")
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(5, 7, 1, 2)
	want := Rect{MinX: 1, MinY: 2, MaxX: 5, MaxY: 7}
	if r != want {
		t.Errorf("NewRect = %+v, want %+v", r, want)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	for _, p := range []Point{{0, 0}, {10, 10}, {5, 5}, {0, 10}} {
		if !r.Contains(p) {
			t.Errorf("Contains(%v) = false, want true (borders inclusive)", p)
		}
	}
	for _, p := range []Point{{-0.1, 5}, {10.1, 5}, {5, -0.1}, {5, 10.1}} {
		if r.Contains(p) {
			t.Errorf("Contains(%v) = true, want false", p)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	tests := []struct {
		name string
		s    Rect
		want bool
	}{
		{"overlap", Rect{5, 5, 15, 15}, true},
		{"contained", Rect{2, 2, 3, 3}, true},
		{"touch edge", Rect{10, 0, 20, 10}, true},
		{"touch corner", Rect{10, 10, 20, 20}, true},
		{"disjoint x", Rect{10.01, 0, 20, 10}, false},
		{"disjoint y", Rect{0, 10.01, 10, 20}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := r.Intersects(tc.s); got != tc.want {
				t.Errorf("Intersects = %v, want %v", got, tc.want)
			}
			if got := tc.s.Intersects(r); got != tc.want {
				t.Errorf("Intersects not symmetric: %v, want %v", got, tc.want)
			}
		})
	}
}

func TestSqMinDist(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	tests := []struct {
		name string
		p    Point
		want float64 // distance, not squared
	}{
		{"inside", Point{5, 5}, 0},
		{"on border", Point{0, 5}, 0},
		{"on corner", Point{10, 10}, 0},
		{"left", Point{-3, 5}, 3},
		{"right", Point{14, 5}, 4},
		{"below", Point{5, -2}, 2},
		{"above", Point{5, 12}, 2},
		{"corner diag", Point{13, 14}, 5},
		{"neg corner diag", Point{-3, -4}, 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := math.Sqrt(r.SqMinDist(tc.p)); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("MINDIST(%v) = %v, want %v", tc.p, got, tc.want)
			}
		})
	}
}

// MINDIST must lower-bound the distance from p to any point inside r.
func TestMinDistLowerBoundsProperty(t *testing.T) {
	f := func(px, py, x1, y1, x2, y2, fx, fy float64) bool {
		r := NewRect(norm(x1), norm(y1), norm(x2), norm(y2))
		p := Point{norm(px), norm(py)}
		// q: a point inside r, from fractions fx, fy in [0,1).
		q := Point{
			X: r.MinX + frac(fx)*r.Width(),
			Y: r.MinY + frac(fy)*r.Height(),
		}
		return r.SqMinDist(p) <= p.SqDist(q)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// norm maps an arbitrary float (possibly NaN/Inf) into a sane range.
func norm(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1000)
}

func frac(v float64) float64 {
	v = math.Abs(norm(v)) / 1000
	if v >= 1 {
		v = 0.5
	}
	return v
}

func TestUnionAndExtend(t *testing.T) {
	r := EmptyRect()
	if !r.IsEmpty() {
		t.Fatal("EmptyRect should be empty")
	}
	r = r.ExtendPoint(Point{3, 4})
	if r.IsEmpty() || r.MinX != 3 || r.MaxY != 4 {
		t.Fatalf("ExtendPoint from empty = %+v", r)
	}
	r = r.ExtendPoint(Point{-1, 10})
	want := Rect{-1, 4, 3, 10}
	if r != want {
		t.Fatalf("ExtendPoint = %+v, want %+v", r, want)
	}
	u := Rect{0, 0, 1, 1}.Union(Rect{5, 5, 6, 6})
	if (u != Rect{0, 0, 6, 6}) {
		t.Fatalf("Union = %+v", u)
	}
}

func TestBoundingRect(t *testing.T) {
	if !BoundingRect(nil).IsEmpty() {
		t.Error("BoundingRect(nil) should be empty")
	}
	got := BoundingRect([]Point{{1, 2}, {-3, 8}, {4, 0}})
	want := Rect{-3, 0, 4, 8}
	if got != want {
		t.Errorf("BoundingRect = %+v, want %+v", got, want)
	}
}

func TestExpand(t *testing.T) {
	r := Rect{0, 0, 10, 10}.Expand(2)
	if (r != Rect{-2, -2, 12, 12}) {
		t.Errorf("Expand = %+v", r)
	}
}

func TestContainsRect(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	if !r.ContainsRect(Rect{0, 0, 10, 10}) {
		t.Error("rect must contain itself")
	}
	if !r.ContainsRect(Rect{1, 1, 9, 9}) {
		t.Error("rect must contain inner rect")
	}
	if r.ContainsRect(Rect{1, 1, 11, 9}) {
		t.Error("rect must not contain overflowing rect")
	}
}

func TestCenterWidthHeightArea(t *testing.T) {
	r := Rect{2, 4, 8, 10}
	if c := r.Center(); c != (Point{5, 7}) {
		t.Errorf("Center = %v", c)
	}
	if r.Width() != 6 || r.Height() != 6 || r.Area() != 36 {
		t.Errorf("Width/Height/Area = %v/%v/%v", r.Width(), r.Height(), r.Area())
	}
}
