package dpe

import (
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/lpt"
	"spatialjoin/internal/replicate"
	"spatialjoin/internal/tuple"
)

// LPT placement must reduce the worst per-partition load compared to hash
// partitioning on a heavily skewed workload (the mechanism behind the
// paper's Table 7 gains), without changing the result.
func TestLPTReducesMakespan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40}
	g := grid.New(bounds, 1, 2)
	// Many medium-hot single-cell clusters of very different heat: hash
	// placement inevitably lands several hot cells on one partition,
	// while LPT spreads them. (A single dominating cell would bound the
	// makespan for both, so the workload uses many.)
	var rs, ss []tuple.Tuple
	id := int64(0)
	for c := 0; c < 60; c++ {
		cx := 1 + rng.Float64()*38
		cy := 1 + rng.Float64()*38
		heat := 50 + rng.Intn(400)
		for i := 0; i < heat; i++ {
			p := geom.Point{X: cx + rng.NormFloat64()*0.2, Y: cy + rng.NormFloat64()*0.2}
			rs = append(rs, tuple.Tuple{ID: id, Pt: p})
			ss = append(ss, tuple.Tuple{ID: id + 10_000_000, Pt: geom.Point{
				X: p.X + rng.NormFloat64()*0.1, Y: p.Y + rng.NormFloat64()*0.1}})
			id++
		}
	}
	clampAll := func(ts []tuple.Tuple) {
		for i := range ts {
			p := ts[i].Pt
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
			ts[i].Pt = p
		}
	}
	clampAll(rs)
	clampAll(ss)

	// Exact per-cell costs (full statistics).
	st := grid.NewStats(g)
	st.AddAll(tuple.R, rs)
	st.AddAll(tuple.S, ss)
	costs := make([]int64, g.NumCells())
	for id := range costs {
		costs[id] = st.EstimatedCost(id)
	}

	const nparts = 16
	assign := func(p geom.Point, set tuple.Set, dst []int) []int {
		return replicate.Universal(g, p, set == tuple.R, dst)
	}
	runWith := func(part Partitioner) *Result {
		res, err := Run(Spec{
			R: rs, S: ss, Eps: 1,
			AssignR: assign, AssignS: assign,
			Cells:   g.NumCells(),
			Part:    part,
			Workers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hash := runWith(HashPartitioner{N: nparts})
	balanced := runWith(ExplicitPartitioner{Table: lpt.Assign(costs, nparts), N: nparts})

	if balanced.Results != hash.Results || balanced.Checksum != hash.Checksum {
		t.Fatalf("LPT changed results: %d vs %d", balanced.Results, hash.Results)
	}
	if balanced.MaxPartitionCost >= hash.MaxPartitionCost {
		t.Fatalf("LPT makespan %d >= hash %d on a skewed workload",
			balanced.MaxPartitionCost, hash.MaxPartitionCost)
	}
	t.Logf("max partition cost: hash=%d, LPT=%d (%.1fx better)",
		hash.MaxPartitionCost, balanced.MaxPartitionCost,
		float64(hash.MaxPartitionCost)/float64(balanced.MaxPartitionCost))
}
