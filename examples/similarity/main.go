// Similarity analysis on one data set: the self-join operator.
//
// A sensor network logs readings with GPS positions; duplicated
// installations appear as points within a few metres of each other. That
// is a single-set problem: a duplicate scan is an ε-distance self-join
// (the MR-DSJ workload of the paper's related work).
//
//	go run ./examples/similarity
package main

import (
	"fmt"
	"log"
	"math/rand"

	"spatialjoin"
)

func main() {
	region := spatialjoin.Rect{MinX: 0, MinY: 0, MaxX: 20, MaxY: 20} // km
	sensors := generateSensors(region, 40_000)
	fmt.Printf("analysing %d sensor positions\n\n", len(sensors))

	// --- Duplicate detection: pairs closer than 5 m.
	const dupRadius = 0.005
	rep, err := spatialjoin.SelfJoin(sensors, spatialjoin.Options{
		Eps:       dupRadius,
		Algorithm: spatialjoin.AdaptiveLPiB,
		Bounds:    &region,
		Collect:   true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("suspected duplicate installations (within %.0f m): %d pairs\n",
		dupRadius*1000, rep.Results)
}

// generateSensors places sensors densely downtown and sparsely in the
// outskirts, with a fraction of accidental duplicates.
func generateSensors(region spatialjoin.Rect, n int) []spatialjoin.Tuple {
	rng := rand.New(rand.NewSource(9))
	pts := make([]spatialjoin.Point, 0, n)
	for len(pts) < n {
		var p spatialjoin.Point
		if rng.Float64() < 0.7 { // downtown cluster
			p = spatialjoin.Point{X: 8 + rng.NormFloat64()*2, Y: 8 + rng.NormFloat64()*2}
		} else {
			p = spatialjoin.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
		}
		if p.X < 0 || p.X > 20 || p.Y < 0 || p.Y > 20 {
			continue
		}
		pts = append(pts, p)
		// 1% duplicated installations a couple of metres away.
		if rng.Float64() < 0.01 && len(pts) < n {
			pts = append(pts, spatialjoin.Point{
				X: p.X + rng.NormFloat64()*0.002,
				Y: p.Y + rng.NormFloat64()*0.002,
			})
		}
	}
	return spatialjoin.FromPoints(pts, 0)
}
