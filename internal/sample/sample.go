// Package sample provides the dataset sampling used to estimate per-cell
// statistics before the join runs. The paper samples 3% of each input to
// instantiate the graph of agreements and to estimate per-cell join costs
// for LPT scheduling.
//
// Keep is the one rule that decides which tuples are in a sample: a
// tuple is kept when a hash of its id and the seed falls below the
// fraction. Membership is therefore a property of the tuples, not of
// their order, so a plan built from a sample does not change when its
// input is permuted or split differently.
package sample

import (
	"math/rand"

	"spatialjoin/internal/tuple"
)

// DefaultFraction is the sampling fraction used by the paper (3%).
const DefaultFraction = 0.03

// Keep reports whether the tuple with the given id is in the sample of
// rate fraction drawn with seed: the 64-bit avalanche mix of (id, seed),
// tuple.PairHash, falls below fraction·2⁶⁴. Fractions <= 0 keep nothing,
// >= 1 keep everything.
func Keep(id int64, fraction float64, seed int64) bool {
	if fraction >= 1 {
		return true
	}
	if !(fraction > 0) {
		return false
	}
	return tuple.PairHash(id, seed) < uint64(fraction*(1<<64))
}

// Bernoulli returns the tuples of ts that Keep puts in the sample of rate
// fraction drawn with seed, in input order. Fractions <= 0 yield an empty
// sample; fractions >= 1 return all tuples.
func Bernoulli(ts []tuple.Tuple, fraction float64, seed int64) []tuple.Tuple {
	if !(fraction > 0) || len(ts) == 0 {
		return nil
	}
	c := len(ts)
	if fraction < 1 {
		c = min(c, int(float64(c)*fraction*12/10)+1)
	}
	out := make([]tuple.Tuple, 0, c)
	for _, t := range ts {
		if Keep(t.ID, fraction, seed) {
			out = append(out, t)
		}
	}
	return out
}

// Reservoir returns a uniform random sample of exactly min(k, len(ts))
// tuples using reservoir sampling. Its only caller is the Sedona-like
// baseline, which sizes its quadtree partitioner by a fixed-size sample.
func Reservoir(ts []tuple.Tuple, k int, seed int64) []tuple.Tuple {
	if k <= 0 || len(ts) == 0 {
		return nil
	}
	if k >= len(ts) {
		out := make([]tuple.Tuple, len(ts))
		copy(out, ts)
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]tuple.Tuple, k)
	copy(out, ts[:k])
	for i := k; i < len(ts); i++ {
		if j := rng.Intn(i + 1); j < k {
			out[j] = ts[i]
		}
	}
	return out
}

// ScaleFactor returns the multiplier that converts sampled counts into
// full-population estimates (1/fraction, or 0 for non-positive fractions).
func ScaleFactor(fraction float64) float64 {
	if fraction <= 0 {
		return 0
	}
	if fraction >= 1 {
		return 1
	}
	return 1 / fraction
}
