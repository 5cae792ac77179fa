package costmodel

import (
	"math"
	"math/rand"
	"testing"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/replicate"
	"spatialjoin/internal/tuple"
)

// pointAssign is an assignment that reads only the row's point.
type pointAssign func(p geom.Point, set tuple.Set, dst []int) []int

// measured runs an actual engine join, each side's rows assigned by
// their points, and returns its metrics.
func measured(g *grid.Grid, rs, ss []tuple.Tuple, assignR, assignS pointAssign) *dpe.Result {
	rows := func(in []tuple.Tuple, assign pointAssign) dpe.Assign {
		return func(row int, set tuple.Set, dst []int) []int { return assign(in[row].Pt, set, dst) }
	}
	res, err := dpe.Run(dpe.Spec{
		R: rs, S: ss, Eps: g.Eps,
		AssignR: rows(rs, assignR), AssignS: rows(ss, assignS),
		Cells:      g.NumCells(),
		Partitions: 64,
		Workers:    4,
	})
	if err != nil {
		panic(err)
	}
	return res
}

func within(t *testing.T, name string, predicted, actual, tolerance float64) {
	t.Helper()
	// Absolute slack keeps tiny counts (a handful of redirected points)
	// from failing on relative tolerance.
	if math.Abs(predicted-actual) <= 20 {
		return
	}
	if actual == 0 {
		t.Errorf("%s: predicted %v, actual 0", name, predicted)
		return
	}
	ratio := predicted / actual
	if math.Abs(ratio-1) > tolerance {
		t.Errorf("%s: predicted %.0f vs actual %.0f (ratio %.3f, tolerance %.2f)",
			name, predicted, actual, ratio, tolerance)
	}
}

func clusteredData(rng *rand.Rand, n int, base int64) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40}
	centers := []geom.Point{{X: 10, Y: 10}, {X: 30, Y: 30}, {X: 15, Y: 32}}
	for i := range out {
		c := centers[rng.Intn(len(centers))]
		out[i] = tuple.Tuple{
			ID: base + int64(i),
			// Clamped into the grid bounds: the model's statistics and the
			// replication rule agree only for in-bounds points, matching
			// the real pipeline where bounds are the data MBR.
			Pt: clampInto(geom.Point{X: c.X + rng.NormFloat64()*5, Y: c.Y + rng.NormFloat64()*5}, bounds),
		}
	}
	return out
}

// With exhaustive statistics (fraction 1), the model's replication and
// candidate-pair predictions must be near-exact for the universal
// strategies — only corner-geometry approximations (diagonal candidates
// counted by MINDIST exactly as the rule does) remain, so the tolerance
// is tight.
func TestUniversalPredictionExactWithFullStats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40}
	g := grid.New(bounds, 1, 2)
	rs := clusteredData(rng, 20_000, 0)
	ss := clusteredData(rng, 20_000, 1_000_000)
	st := grid.NewStats(g)
	st.AddAll(tuple.R, rs)
	st.AddAll(tuple.S, ss)

	for _, replSet := range []tuple.Set{tuple.R, tuple.S} {
		pred := Universal(st, replSet, 1, 24)
		res := measured(g, rs, ss,
			func(p geom.Point, set tuple.Set, dst []int) []int {
				return replicate.Universal(g, p, replSet == tuple.R, dst)
			},
			func(p geom.Point, set tuple.Set, dst []int) []int {
				return replicate.Universal(g, p, replSet == tuple.S, dst)
			})
		within(t, "replicated", pred.Replicated, float64(res.Replicated()), 0.001)
		within(t, "shuffled bytes", pred.ShuffledBytes, float64(res.ShuffledBytes), 0.001)
	}
}

// With sampled statistics the predictions must land within sampling noise.
func TestUniversalPredictionWithSampledStats(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40}
	g := grid.New(bounds, 1, 2)
	rs := clusteredData(rng, 50_000, 0)
	ss := clusteredData(rng, 50_000, 1_000_000)
	st := grid.NewStats(g)
	const fraction = 0.2
	for i, r := range rs {
		if i%5 == 0 {
			st.Add(tuple.R, r.Pt)
		}
	}
	for i, s := range ss {
		if i%5 == 0 {
			st.Add(tuple.S, s.Pt)
		}
	}
	pred := Universal(st, tuple.R, fraction, 24)
	res := measured(g, rs, ss,
		func(p geom.Point, set tuple.Set, dst []int) []int {
			return replicate.Universal(g, p, true, dst)
		},
		func(p geom.Point, set tuple.Set, dst []int) []int {
			return replicate.Universal(g, p, false, dst)
		})
	within(t, "replicated", pred.Replicated, float64(res.Replicated()), 0.1)
	within(t, "shuffled bytes", pred.ShuffledBytes, float64(res.ShuffledBytes), 0.1)
}

// The adaptive prediction must track the measured adaptive run, and the
// model must rank strategies in the same order as reality.
func TestAdaptivePredictionAndRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40}
	g := grid.New(bounds, 1, 2)
	// Asymmetric skew so adaptive clearly beats both universals.
	var rs, ss []tuple.Tuple
	for i := 0; i < 30_000; i++ {
		rs = append(rs, tuple.Tuple{ID: int64(i), Pt: clampInto(geom.Point{
			X: 5 + rng.NormFloat64()*4, Y: 20 + rng.NormFloat64()*10}, bounds)})
		ss = append(ss, tuple.Tuple{ID: int64(i + 1_000_000), Pt: clampInto(geom.Point{
			X: 35 + rng.NormFloat64()*4, Y: 20 + rng.NormFloat64()*10}, bounds)})
	}
	st := grid.NewStats(g)
	st.AddAll(tuple.R, rs)
	st.AddAll(tuple.S, ss)
	gr := agreements.Build(st, agreements.LPiB)

	pred := Adaptive(gr, st, 1, 24)
	res := measured(g, rs, ss,
		func(p geom.Point, set tuple.Set, dst []int) []int {
			return replicate.Adaptive(gr, p, set, dst)
		},
		func(p geom.Point, set tuple.Set, dst []int) []int {
			return replicate.Adaptive(gr, p, set, dst)
		})
	// Marking/supplementary redirections make adaptive counts slightly
	// deviate from the marking-agnostic model: allow 5%.
	within(t, "adaptive replicated", pred.Replicated, float64(res.Replicated()), 0.05)
	within(t, "adaptive shuffled", pred.ShuffledBytes, float64(res.ShuffledBytes), 0.05)

	predUniR := Universal(st, tuple.R, 1, 24)
	predUniS := Universal(st, tuple.S, 1, 24)
	if pred.Replicated >= predUniR.Replicated || pred.Replicated >= predUniS.Replicated {
		t.Fatalf("model must rank adaptive below universal: %v vs %v/%v",
			pred.Replicated, predUniR.Replicated, predUniS.Replicated)
	}
}

// Candidate pairs predicted by the model must match the engine's
// MaxPartitionCost-style accounting: per-cell |R|·|S| sums.
func TestCandidatePairsPrediction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 20, MaxY: 20}
	g := grid.New(bounds, 1, 2)
	rs := clusteredData(rng, 5000, 0)
	ss := clusteredData(rng, 5000, 1_000_000)
	// clusteredData spans a 40x40 world; clamp into this smaller one.
	for i := range rs {
		rs[i].Pt = clampInto(rs[i].Pt, bounds)
	}
	for i := range ss {
		ss[i].Pt = clampInto(ss[i].Pt, bounds)
	}
	st := grid.NewStats(g)
	st.AddAll(tuple.R, rs)
	st.AddAll(tuple.S, ss)
	pred := Universal(st, tuple.R, 1, 24)

	// Count actual candidate pairs per cell after universal replication.
	counts := make([][2]int64, g.NumCells())
	var buf []int
	for _, r := range rs {
		buf = replicate.Universal(g, r.Pt, true, buf[:0])
		for _, id := range buf {
			counts[id][0]++
		}
	}
	for _, s := range ss {
		buf = replicate.Universal(g, s.Pt, false, buf[:0])
		for _, id := range buf {
			counts[id][1]++
		}
	}
	var actual, maxCell float64
	for _, c := range counts {
		pairs := float64(c[0]) * float64(c[1])
		actual += pairs
		if pairs > maxCell {
			maxCell = pairs
		}
	}
	within(t, "candidate pairs", pred.CandidatePairs, actual, 0.001)
	within(t, "max cell pairs", pred.MaxCellPairs, maxCell, 0.001)
}

func clampInto(p geom.Point, r geom.Rect) geom.Point {
	if p.X < r.MinX {
		p.X = r.MinX
	} else if p.X > r.MaxX {
		p.X = r.MaxX
	}
	if p.Y < r.MinY {
		p.Y = r.MinY
	} else if p.Y > r.MaxY {
		p.Y = r.MaxY
	}
	return p
}

func TestEmptyStatsPredictZero(t *testing.T) {
	g := grid.New(geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 1, 2)
	st := grid.NewStats(g)
	pred := Universal(st, tuple.R, 0.03, 24)
	if pred.Replicated != 0 || pred.CandidatePairs != 0 || pred.ShuffledBytes != 0 {
		t.Fatalf("empty stats should predict zero: %+v", pred)
	}
	gr := agreements.Build(st, agreements.LPiB)
	pred = Adaptive(gr, st, 0.03, 24)
	if pred.Replicated != 0 || pred.CandidatePairs != 0 {
		t.Fatalf("empty adaptive prediction: %+v", pred)
	}
}
