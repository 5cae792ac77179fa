package costmodel

import (
	"math"
	"slices"

	"spatialjoin/internal/geom"
)

// TwoLayerPrediction is the model's output for one candidate tile
// resolution of the two-layer non-point join.
type TwoLayerPrediction struct {
	NX, NY int
	// Replicated is the expected number of extra MBR copies (covered
	// tiles beyond the first), scaled to the full inputs.
	Replicated float64
	// CandidatePairs is the expected Σ over tiles of |R_t|·|S_t| — the
	// filter work the per-tile mini-joins face.
	CandidatePairs float64
	// Score is the cost the resolution was ranked by.
	Score float64
}

// twoLayerReplWeight prices one replica in candidate-pair units when
// scoring resolutions: a replica costs an extra decode + shuffle slot,
// which empirically trades against roughly this many MBR comparisons.
const twoLayerReplWeight = 8.0

// TwoLayerResolution picks the tile resolution for a two-layer
// non-point join from sampled MBRs (the R side already ε-widened by the
// caller where the predicate requires it). nR and nS are the full input
// cardinalities the sample is scaled to; workers floors the tile count
// so the reduce phase has enough tasks to balance.
//
// The model walks a doubling ladder of square resolutions. For each it
// computes, directly from the sample, the expected replication (tiles
// covered per MBR beyond the first) and the expected candidate pairs
// (Σ_t |R_t|·|S_t| over a tile histogram of the sample, scaled
// quadratically), then ranks by candidates + weight·replicas: finer
// grids cut candidate pairs but replicate fat objects into more tiles,
// and the score bottoms out where the marginal replication outweighs
// the filtering gain.
func TwoLayerResolution(bounds geom.Rect, sampleR, sampleS []geom.Rect, nR, nS, workers int) TwoLayerPrediction {
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

	// Resolution ladder: up to the grid where the average tile would
	// hold about one sampled object — finer only adds replication.
	maxN := 1
	for maxN*maxN < (nR+nS) && maxN < 4096 {
		maxN *= 2
	}

	var tl tileTally
	best := TwoLayerPrediction{Score: math.Inf(1)}
	for n := 1; n <= maxN; n *= 2 {
		p := tl.predict(bounds, sampleR, sampleS, scaleR, scaleS, n)
		// Floor for parallelism: with fewer tiles than workers the
		// reduce phase cannot balance; skip unless it is the only
		// candidate left.
		if n*n < workers && n < maxN {
			continue
		}
		if p.Score < best.Score {
			best = p
		}
	}
	if math.IsInf(best.Score, 1) {
		best = tl.predict(bounds, sampleR, sampleS, scaleR, scaleS, maxN)
	}
	return best
}

// tileTally holds each side's covered tile ids for one resolution step;
// the slices are reused across the steps of one TwoLayerResolution.
type tileTally struct {
	r, s []int
}

// predict models one n×n resolution: each side's covered tile ids,
// sorted, give the per-tile counts |R_t| and |S_t| as runs, and one
// merge of the two sums |R_t|·|S_t| over the tiles both sides reach.
func (tl *tileTally) predict(bounds geom.Rect, sampleR, sampleS []geom.Rect, scaleR, scaleS float64, n int) TwoLayerPrediction {
	tw := bounds.Width() / float64(n)
	th := bounds.Height() / float64(n)
	var replR, replS float64
	tl.r, replR = cover(bounds, sampleR, tw, th, n, tl.r[:0])
	tl.s, replS = cover(bounds, sampleS, tw, th, n, tl.s[:0])
	slices.Sort(tl.r)
	slices.Sort(tl.s)

	var cand float64
	for i, j := 0, 0; i < len(tl.r) && j < len(tl.s); {
		switch t := tl.r[i]; {
		case t < tl.s[j]:
			i++
		case t > tl.s[j]:
			j++
		default:
			i0, j0 := i, j
			for i < len(tl.r) && tl.r[i] == t {
				i++
			}
			for j < len(tl.s) && tl.s[j] == t {
				j++
			}
			cand += float64(i-i0) * float64(j-j0)
		}
	}
	p := TwoLayerPrediction{
		NX:             n,
		NY:             n,
		Replicated:     replR*scaleR + replS*scaleS,
		CandidatePairs: cand * scaleR * scaleS,
	}
	p.Score = p.CandidatePairs + twoLayerReplWeight*p.Replicated
	return p
}

// cover appends the id of every tile each sampled MBR covers to tiles
// and returns it with the sample's replica count (covered tiles beyond
// the first).
func cover(bounds geom.Rect, mbrs []geom.Rect, tw, th float64, n int, tiles []int) ([]int, float64) {
	clampTile := func(v float64, span float64, lo float64) int {
		if span <= 0 {
			return 0
		}
		c := int((v - lo) / span)
		if c < 0 {
			c = 0
		}
		if c >= n {
			c = n - 1
		}
		return c
	}
	var repl float64
	for _, m := range mbrs {
		c0, c1 := clampTile(m.MinX, tw, bounds.MinX), clampTile(m.MaxX, tw, bounds.MinX)
		r0, r1 := clampTile(m.MinY, th, bounds.MinY), clampTile(m.MaxY, th, bounds.MinY)
		repl += float64((c1-c0+1)*(r1-r0+1) - 1)
		for row := r0; row <= r1; row++ {
			for col := c0; col <= c1; col++ {
				tiles = append(tiles, row*n+col)
			}
		}
	}
	return tiles, repl
}
