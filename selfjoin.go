package spatialjoin

import (
	"context"
	"fmt"
)

// SelfJoin computes the ε-distance self-join of one point set: every
// unordered pair {a, b}, a ≠ b, with d(a, b) ≤ Eps, reported once with
// RID < SID. Self-joins are the workload of distance-based similarity
// analysis (the MR-DSJ setting of the paper's related work); any
// algorithm except the dedup ablation and AutoPlanned can execute one.
func SelfJoin(ts []Tuple, opt Options) (*Report, error) {
	if opt.Algorithm == AdaptiveSimpleDedup || opt.Algorithm == AutoPlanned {
		return nil, fmt.Errorf("spatialjoin: algorithm %v does not support self-joins", opt.Algorithm)
	}
	return join(context.Background(), ts, ts, opt, true)
}
