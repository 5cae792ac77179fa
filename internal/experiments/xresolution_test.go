package experiments

import (
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/tuple"
)

func TestPlanResolutionPrefersFineCells(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clamp := func(v float64) float64 { return min(max(v, 0), 40) }
	// Overlapping dense clusters: candidate pairs per cell grow with the
	// cell area, so coarse grids are predictably more expensive.
	var rs, ss []tuple.Tuple
	for i := 0; i < 30_000; i++ {
		cx := 10 + 20*float64(i%2)
		rs = append(rs, tuple.Tuple{ID: int64(i), Pt: geom.Point{
			X: clamp(cx + rng.NormFloat64()*3), Y: clamp(20 + rng.NormFloat64()*3)}})
		ss = append(ss, tuple.Tuple{ID: int64(i + 1_000_000), Pt: geom.Point{
			X: clamp(cx + rng.NormFloat64()*3), Y: clamp(20 + rng.NormFloat64()*3)}})
	}
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40}
	choice, err := planResolution(bounds, rs, ss, 1, 0.3, 1, 24, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(choice.costs) != 4 {
		t.Fatalf("expected 4 candidate costs, got %d", len(choice.costs))
	}
	// Candidate pairs dominate on dense data: the finest grid must win,
	// matching the paper's Figure 15 conclusion.
	if choice.res != 2 {
		t.Fatalf("chose %veps; Figure 15's data picks 2eps (costs: %v)", choice.res, choice.costs)
	}
	// Costs must be increasing in resolution for this workload.
	if choice.costs[2] >= choice.costs[5] {
		t.Fatalf("cost(2eps)=%v not below cost(5eps)=%v", choice.costs[2], choice.costs[5])
	}
}

func TestPlanResolutionValidation(t *testing.T) {
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	if _, err := planResolution(bounds, nil, nil, 0, 0.1, 1, 24, nil); err == nil {
		t.Fatal("eps=0 must fail")
	}
	if _, err := planResolution(bounds, nil, nil, 1, 0.1, 1, 24, []float64{1.5}); err == nil {
		t.Fatal("resolution < 2 must fail")
	}
}
