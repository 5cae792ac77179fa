package costmodel

import (
	"math"
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
)

// mapResolution is the resolution ladder with per-step tile histograms
// in maps, as TwoLayerResolution computed it before its tallies became
// sorted slices: the oracle the merge-count must reproduce exactly.
func mapResolution(bounds geom.Rect, sampleR, sampleS []geom.Rect, nR, nS, workers int) TwoLayerPrediction {
	if workers < 1 {
		workers = 1
	}
	scaleR, scaleS := 1.0, 1.0
	if len(sampleR) > 0 {
		scaleR = float64(nR) / float64(len(sampleR))
	}
	if len(sampleS) > 0 {
		scaleS = float64(nS) / float64(len(sampleS))
	}
	maxN := 1
	for maxN*maxN < (nR+nS) && maxN < 4096 {
		maxN *= 2
	}
	predict := func(n int) TwoLayerPrediction {
		tw := bounds.Width() / float64(n)
		th := bounds.Height() / float64(n)
		tally := func(mbrs []geom.Rect, hist map[int]float64) float64 {
			clampTile := func(v, span, lo float64) int {
				if span <= 0 {
					return 0
				}
				return min(max(int((v-lo)/span), 0), n-1)
			}
			var repl float64
			for _, m := range mbrs {
				c0, c1 := clampTile(m.MinX, tw, bounds.MinX), clampTile(m.MaxX, tw, bounds.MinX)
				r0, r1 := clampTile(m.MinY, th, bounds.MinY), clampTile(m.MaxY, th, bounds.MinY)
				repl += float64((c1-c0+1)*(r1-r0+1) - 1)
				for row := r0; row <= r1; row++ {
					for col := c0; col <= c1; col++ {
						hist[row*n+col]++
					}
				}
			}
			return repl
		}
		histR, histS := map[int]float64{}, map[int]float64{}
		replR, replS := tally(sampleR, histR), tally(sampleS, histS)
		var cand float64
		for t, hr := range histR {
			if hs, ok := histS[t]; ok {
				cand += hr * hs
			}
		}
		p := TwoLayerPrediction{NX: n, NY: n, Replicated: replR*scaleR + replS*scaleS, CandidatePairs: cand * scaleR * scaleS}
		p.Score = p.CandidatePairs + twoLayerReplWeight*p.Replicated
		return p
	}
	best := TwoLayerPrediction{Score: math.Inf(1)}
	for n := 1; n <= maxN; n *= 2 {
		p := predict(n)
		if n*n < workers && n < maxN {
			continue
		}
		if p.Score < best.Score {
			best = p
		}
	}
	if math.IsInf(best.Score, 1) {
		best = predict(maxN)
	}
	return best
}

// TestTwoLayerResolutionMatchesMapOracle: the sorted-slice tallies pick
// the same resolution with the same prediction, to the bit, as the map
// histograms over random samples — MBRs flush with tile edges at every
// ladder step, MBRs partly or wholly outside the bounds (clamped onto
// the border tiles), points, and empty sides.
func TestTwoLayerResolutionMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	bounds := geom.Rect{MinX: -16, MinY: 8, MaxX: 48, MaxY: 72} // 64 × 64: ladder edges are exact
	sample := func(n int) []geom.Rect {
		out := make([]geom.Rect, n)
		for i := range out {
			var x, y float64
			switch rng.Intn(4) {
			case 0: // begin corner on a tile edge of some ladder step
				x = bounds.MinX + float64(rng.Intn(65))
				y = bounds.MinY + float64(rng.Intn(65))
			case 1: // around and outside the bounds
				x = bounds.MinX - 20 + rng.Float64()*(bounds.Width()+40)
				y = bounds.MinY - 20 + rng.Float64()*(bounds.Height()+40)
			default:
				x = bounds.MinX + rng.Float64()*bounds.Width()
				y = bounds.MinY + rng.Float64()*bounds.Height()
			}
			w, h := rng.ExpFloat64()*3, rng.ExpFloat64()*3
			switch rng.Intn(5) {
			case 0: // a point
				w, h = 0, 0
			case 1: // extent ending on a tile edge
				w, h = float64(rng.Intn(9)), float64(rng.Intn(9))
			}
			out[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
		}
		return out
	}
	for i := 0; i < 300; i++ {
		sR, sS := sample(rng.Intn(400)), sample(rng.Intn(400))
		nR, nS := len(sR)*(1+rng.Intn(50)), len(sS)*(1+rng.Intn(50))
		workers := 1 + rng.Intn(64)
		got := TwoLayerResolution(bounds, sR, sS, nR, nS, workers)
		want := mapResolution(bounds, sR, sS, nR, nS, workers)
		if got != want {
			t.Fatalf("sample %d (|R| %d, |S| %d, workers %d): %+v, the map oracle %+v", i, len(sR), len(sS), workers, got, want)
		}
	}
	// A degenerate frame (zero width) puts every MBR in column 0.
	flat := geom.Rect{MinX: 3, MinY: 0, MaxX: 3, MaxY: 10}
	sR, sS := sample(50), sample(50)
	if got, want := TwoLayerResolution(flat, sR, sS, 500, 500, 4), mapResolution(flat, sR, sS, 500, 500, 4); got != want {
		t.Fatalf("flat frame: %+v, the map oracle %+v", got, want)
	}
}
