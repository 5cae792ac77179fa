// Package sweep is the test oracle of the ε-distance join: a quadratic
// nested loop that reports every pair (r, s) with d(r, s) <= eps exactly
// once through an Emit callback, and the Counter and Collector sinks the
// differential tests compare the engines' kernels against. The engines
// themselves join with internal/colsweep.
package sweep

import "spatialjoin/internal/tuple"

// Emit receives one verified join result pair.
type Emit func(r, s tuple.Tuple)

// NestedLoop computes the ε-distance join of rs and ss by comparing all
// pairs (closed: distance exactly eps matches).
func NestedLoop(rs, ss []tuple.Tuple, eps float64, emit Emit) {
	eps2 := eps * eps
	for _, r := range rs {
		for _, s := range ss {
			if r.Pt.SqDist(s.Pt) <= eps2 {
				emit(r, s)
			}
		}
	}
}

// Counter is an Emit sink that counts results and maintains an
// order-independent checksum of the result pair identifiers, so two join
// algorithms can be compared cheaply without materialising results.
type Counter struct {
	N        int64
	Checksum uint64
}

// Emit records one result pair.
func (c *Counter) Emit(r, s tuple.Tuple) {
	c.N++
	c.Checksum += tuple.PairHash(r.ID, s.ID)
}

// Collector is an Emit sink that materialises result pairs.
type Collector struct {
	Pairs []tuple.Pair
}

// Emit appends one result pair.
func (c *Collector) Emit(r, s tuple.Tuple) {
	c.Pairs = append(c.Pairs, tuple.Pair{RID: r.ID, SID: s.ID})
}
