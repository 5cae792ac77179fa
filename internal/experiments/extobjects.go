package experiments

import (
	"fmt"
	"math/rand"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/extjoin"
	"spatialjoin/internal/geom"
)

// ExtentSweep is the maximum object extent (relative to ε) probed by the
// xobjects experiment: the bigger the objects, the more the effective
// threshold — and with it replication — inflates.
var ExtentSweep = []float64{0, 0.5, 1, 2, 4}

// XObjects evaluates the extended polyline/polygon join: for growing
// object extents it reports replication and execution time for the
// adaptive strategy versus universal replication, plus the effective
// centre threshold.
func XObjects(sc Scale) []*Table {
	t := &Table{
		ID:    "xobjects",
		Title: "extended object join: adaptive vs universal vs object extent",
		Columns: []string{
			"extent/eps", "eff. eps", "results",
			"adaptive repl", "UNI(R) repl", "UNI/adaptive", "adaptive time", "UNI(R) time",
		},
	}
	// Object counts scaled down: exact segment-distance refinement is an
	// order of magnitude heavier per candidate than point distance.
	n := sc.N / 4
	if n < 1000 {
		n = 1000
	}
	for _, rel := range ExtentSweep {
		extent := rel * DefaultEps
		rs := objectWorkload(1, n, extent)
		ss := objectWorkload(2, n, extent)

		cfg := extjoin.Config{
			Eps: DefaultEps, Workers: sc.Workers, Partitions: sc.Partitions,
			Seed: sc.Seed,
		}
		cfgA := cfg
		cfgA.Policy = agreements.LPiB
		adaptive := mustExt(rs, ss, cfgA)
		cfgU := cfg
		cfgU.Policy = agreements.UniR
		uni := mustExt(rs, ss, cfgU)
		if adaptive.Results != uni.Results || adaptive.Checksum != uni.Checksum {
			panic(fmt.Sprintf("xobjects: strategies disagree at extent %v: %d vs %d",
				extent, adaptive.Results, uni.Results))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", rel),
			fmt.Sprintf("%.2f", adaptive.EffectiveEps),
			fmtCount(adaptive.Results),
			fmtCount(adaptive.Replicated()),
			fmtCount(uni.Replicated()),
			fmtRatio(uni.Replicated(), adaptive.Replicated()),
			fmtDur(adaptive.TotalTime()),
			fmtDur(uni.TotalTime()),
		})
	}
	return []*Table{t}
}

func mustExt(rs, ss []extgeom.Object, cfg extjoin.Config) *extjoin.Result {
	res, err := extjoin.Join(rs, ss, cfg)
	if err != nil {
		panic(fmt.Sprintf("xobjects: %v", err))
	}
	return res
}

// objectWorkload builds a clustered mix of polylines and polygons whose
// extents are bounded by extent (points when extent is 0).
func objectWorkload(seed int64, n int, extent float64) []extgeom.Object {
	rng := rand.New(rand.NewSource(seed))
	world := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	centers := make([]geom.Point, 30)
	for i := range centers {
		centers[i] = geom.Point{
			X: rng.Float64() * world.MaxX,
			Y: rng.Float64() * world.MaxY,
		}
	}
	base := seed * 1_000_000_000
	out := make([]extgeom.Object, n)
	for i := range out {
		c := centers[rng.Intn(len(centers))]
		anchor := geom.Point{X: c.X + rng.NormFloat64()*2, Y: c.Y + rng.NormFloat64()*2}
		id := base + int64(i)
		if extent == 0 {
			out[i] = extgeom.NewPoint(id, anchor)
			continue
		}
		if rng.Intn(2) == 0 {
			out[i] = extgeom.NewPolyline(id, []geom.Point{
				anchor,
				{X: anchor.X + rng.Float64()*extent, Y: anchor.Y + rng.Float64()*extent},
			})
		} else {
			w := rng.Float64() * extent
			h := rng.Float64() * extent
			out[i] = extgeom.NewPolygon(id, []geom.Point{
				anchor,
				{X: anchor.X + w, Y: anchor.Y},
				{X: anchor.X + w, Y: anchor.Y + h},
				{X: anchor.X, Y: anchor.Y + h},
			})
		}
	}
	return out
}
