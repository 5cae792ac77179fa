package planner

import (
	"math/rand"
	"testing"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/sample"
	"spatialjoin/internal/tuple"
)

func mkGrid() *grid.Grid {
	return grid.New(geom.Rect{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40}, 1, 2)
}

// plan samples both inputs onto g, builds the LPiB graph and costs the
// strategies — the orchestrator's steps ahead of Plan, done by hand.
func plan(g *grid.Grid, rs, ss []tuple.Tuple, fraction float64, seed int64, tupleBytes int) *Choice {
	st := grid.NewStats(g)
	st.AddAll(tuple.R, sample.Bernoulli(rs, fraction, seed))
	st.AddAll(tuple.S, sample.Bernoulli(ss, fraction, seed+1))
	return Plan(agreements.Build(st, agreements.LPiB), st, fraction, tupleBytes)
}

func clamp(p geom.Point) geom.Point {
	if p.X < 0 {
		p.X = 0
	} else if p.X > 40 {
		p.X = 40
	}
	if p.Y < 0 {
		p.Y = 0
	} else if p.Y > 40 {
		p.Y = 40
	}
	return p
}

// skewedSets builds R and S concentrated in different regions, the
// configuration where adaptive replication wins.
func skewedSets(rng *rand.Rand, n int) (rs, ss []tuple.Tuple) {
	for i := 0; i < n; i++ {
		rs = append(rs, tuple.Tuple{ID: int64(i), Pt: clamp(geom.Point{
			X: 8 + rng.NormFloat64()*3, Y: 20 + rng.NormFloat64()*10})})
		ss = append(ss, tuple.Tuple{ID: int64(i + 1_000_000), Pt: clamp(geom.Point{
			X: 32 + rng.NormFloat64()*3, Y: 20 + rng.NormFloat64()*10})})
	}
	return rs, ss
}

// lopsidedSets builds a tiny R against a huge S: replicating R
// universally is then near-free and can beat adaptive on shuffle.
func lopsidedSets(rng *rand.Rand, nr, ns int) (rs, ss []tuple.Tuple) {
	for i := 0; i < nr; i++ {
		rs = append(rs, tuple.Tuple{ID: int64(i), Pt: geom.Point{
			X: rng.Float64() * 40, Y: rng.Float64() * 40}})
	}
	for i := 0; i < ns; i++ {
		ss = append(ss, tuple.Tuple{ID: int64(i + 1_000_000), Pt: geom.Point{
			X: rng.Float64() * 40, Y: rng.Float64() * 40}})
	}
	return rs, ss
}

func TestPlanPicksAdaptiveOnSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rs, ss := skewedSets(rng, 20_000)
	choice := plan(mkGrid(), rs, ss, 0.2, 1, 24)
	if choice.Strategy != Adaptive {
		t.Fatalf("picked %v on skewed data, want adaptive (predictions: %+v)",
			choice.Strategy, choice.Predictions)
	}
}

func TestPlanPredictionsOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rs, ss := skewedSets(rng, 10_000)
	choice := plan(mkGrid(), rs, ss, 0.5, 1, 24)
	ad := choice.Predictions[Adaptive]
	ur := choice.Predictions[UniversalR]
	us := choice.Predictions[UniversalS]
	if ad.Replicated >= ur.Replicated || ad.Replicated >= us.Replicated {
		t.Fatalf("adaptive should predict least replication: %v vs %v / %v",
			ad.Replicated, ur.Replicated, us.Replicated)
	}
}

func TestPlanPicksCheapUniversalWhenLopsided(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// 200 R points vs 50k S points, uniform: replicating R costs almost
	// nothing; the planner should never pick UNI(S).
	rs, ss := lopsidedSets(rng, 200, 50_000)
	choice := plan(mkGrid(), rs, ss, 0.5, 1, 24)
	if choice.Strategy == UniversalS {
		t.Fatalf("picked UNI(S) with |S| >> |R| (predictions: %+v)", choice.Predictions)
	}
	// And the prediction for UNI(R) must be far below UNI(S).
	if choice.Predictions[UniversalR].Replicated >= choice.Predictions[UniversalS].Replicated {
		t.Fatal("UNI(R) should predict less replication than UNI(S) here")
	}
}

func TestPlanValidation(t *testing.T) {
	var c Choice
	if _, err := core.BuildPlan(nil, nil, core.Config{Eps: 1, Res: 1, Scheme: Auto(&c)}); err == nil {
		t.Fatal("eps-grid resolution must be rejected")
	}
}

func TestStrategyNames(t *testing.T) {
	if Adaptive.String() != "adaptive" || UniversalR.String() != "UNI(R)" || UniversalS.String() != "UNI(S)" {
		t.Fatal("strategy names broken")
	}
}

func TestPlanResolutionPrefersFineCells(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Overlapping dense clusters: candidate pairs per cell grow with the
	// cell area, so coarse grids are predictably more expensive.
	var rs, ss []tuple.Tuple
	for i := 0; i < 30_000; i++ {
		c := geom.Point{X: 10 + 20*float64(i%2), Y: 20}
		rs = append(rs, tuple.Tuple{ID: int64(i), Pt: clamp(geom.Point{
			X: c.X + rng.NormFloat64()*3, Y: c.Y + rng.NormFloat64()*3})})
		ss = append(ss, tuple.Tuple{ID: int64(i + 1_000_000), Pt: clamp(geom.Point{
			X: c.X + rng.NormFloat64()*3, Y: c.Y + rng.NormFloat64()*3})})
	}
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40}
	choice, err := PlanResolution(bounds, rs, ss, 1, 0.3, 1, 24, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(choice.Costs) != 4 {
		t.Fatalf("expected 4 candidate costs, got %d", len(choice.Costs))
	}
	// Candidate pairs dominate on dense data: the finest grid must win,
	// matching the paper's Figure 15 conclusion.
	if choice.Res != 2 {
		t.Fatalf("chose %veps; Figure 15's data picks 2eps (costs: %v)", choice.Res, choice.Costs)
	}
	// Costs must be increasing in resolution for this workload.
	if choice.Costs[2] >= choice.Costs[5] {
		t.Fatalf("cost(2eps)=%v not below cost(5eps)=%v", choice.Costs[2], choice.Costs[5])
	}
}

func TestPlanResolutionValidation(t *testing.T) {
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	if _, err := PlanResolution(bounds, nil, nil, 0, 0.1, 1, 24, nil); err == nil {
		t.Fatal("eps=0 must fail")
	}
	if _, err := PlanResolution(bounds, nil, nil, 1, 0.1, 1, 24, []float64{1.5}); err == nil {
		t.Fatal("resolution < 2 must fail")
	}
}

// hotMiddleSets puts a hot cell between two neighbours that each push a
// different set into it under LPiB (501 R vs 500 S on one border, 500 R
// vs 501 S on the other): adaptive then grows both sides of the hot
// cell's product, universal replication only one, and the predicted
// shuffle of the three strategies is within 32 bytes.
func hotMiddleSets() (rs, ss []tuple.Tuple, bounds geom.Rect) {
	rng := rand.New(rand.NewSource(7))
	add := func(ts *[]tuple.Tuple, n int, x0 float64) {
		for i := 0; i < n; i++ {
			id := int64(len(rs) + len(ss))
			*ts = append(*ts, tuple.Tuple{ID: id, Pt: geom.Point{X: x0 + 0.1 + 0.8*rng.Float64(), Y: 1.1 + 0.8*rng.Float64()}})
		}
	}
	add(&rs, 1000, 4) // the hot cell's interior
	add(&ss, 1000, 4)
	add(&rs, 501, 2) // left neighbour, within ε of the hot cell
	add(&ss, 500, 2)
	add(&rs, 500, 6) // right neighbour, within ε of the hot cell
	add(&ss, 501, 6)
	return rs, ss, geom.Rect{MinX: 0, MinY: 0, MaxX: 9, MaxY: 3}
}

// TestAutoContinuesWithChosenStrategy: the Auto scheme samples once and
// its plan is the chosen strategy's own plan, counter for counter.
func TestAutoContinuesWithChosenStrategy(t *testing.T) {
	rs, ss, bounds := hotMiddleSets()
	base := core.Config{Eps: 1, Res: 3, SampleFraction: 1, Seed: 5, Workers: 2, Partitions: 4, Bounds: &bounds}
	var c Choice
	cfg := base
	cfg.Scheme, cfg.Tracer = Auto(&c), obs.New()
	got, err := core.Join(rs, ss, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Strategy != Adaptive {
		t.Fatalf("chose %v, want adaptive (predictions %+v)", c.Strategy, c.Predictions)
	}
	samples := 0
	for _, sp := range cfg.Tracer.Spans() {
		if sp.Name == obs.SpanSample {
			samples++
		}
	}
	if samples != 1 {
		t.Errorf("%d sample spans, want 1", samples)
	}
	want, err := core.Join(rs, ss, base)
	if err != nil {
		t.Fatal(err)
	}
	g, w := got.Metrics, want.Metrics
	if g.Results != w.Results || g.Checksum != w.Checksum || g.ReplicatedR != w.ReplicatedR ||
		g.ReplicatedS != w.ReplicatedS || g.ShuffledBytes != w.ShuffledBytes || g.MaxPartitionCost != w.MaxPartitionCost {
		t.Errorf("auto plan differs from the adaptive plan:\n got %+v\nwant %+v", g, w)
	}
}
