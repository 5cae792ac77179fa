// Package lpt implements the Longest-Processing-Time greedy heuristic for
// the multiprocessor scheduling problem, used to assign grid cells to
// workers so that the maximum estimated join cost per worker is minimised
// (Section 6.2 of the paper). LPT sorts tasks by descending cost and
// repeatedly gives the next task to the least-loaded bin; it is a 4/3
// approximation of the NP-hard optimum.
package lpt

import (
	"cmp"
	"container/heap"
	"slices"
)

// Assign distributes len(costs) tasks over nbins bins and returns, per
// task, the bin index it was assigned to. Zero-cost tasks are spread
// round-robin after the costly ones so empty cells do not all pile onto
// one bin. Assign panics if nbins is not positive.
func Assign(costs []int64, nbins int) []int {
	if nbins <= 0 {
		panic("lpt: number of bins must be positive")
	}
	// Only the costly tasks are sorted and placed by load. The rest take
	// bins round-robin where a stable sort of every task by descending
	// cost would put them: zero-cost tasks in index order, then negative
	// ones by descending cost. On a sparse grid most cells cost nothing.
	out := make([]int, len(costs))
	var order, negative []int
	rr := 0
	for task, c := range costs {
		switch {
		case c > 0:
			order = append(order, task)
		case c == 0:
			out[task] = rr % nbins
			rr++
		default:
			negative = append(negative, task)
		}
	}
	// Stable so equal-cost tasks keep index order (test expectations
	// depend on it); SortStableFunc avoids the reflection of
	// sort.SliceStable.
	byCostDesc := func(a, b int) int { return cmp.Compare(costs[b], costs[a]) }
	slices.SortStableFunc(order, byCostDesc)
	slices.SortStableFunc(negative, byCostDesc)
	for _, task := range negative {
		out[task] = rr % nbins
		rr++
	}

	loads := make(binHeap, nbins)
	for i := range loads {
		loads[i] = &bin{index: i}
	}
	heap.Init(&loads)

	for _, task := range order {
		b := loads[0]
		out[task] = b.index
		b.load += costs[task]
		heap.Fix(&loads, 0)
	}
	return out
}

// Loads returns the total cost per bin for a given assignment.
func Loads(costs []int64, assign []int, nbins int) []int64 {
	loads := make([]int64, nbins)
	for i, b := range assign {
		loads[b] += costs[i]
	}
	return loads
}

// Makespan returns the maximum bin load of an assignment — the quantity
// LPT minimises.
func Makespan(costs []int64, assign []int, nbins int) int64 {
	var max int64
	for _, l := range Loads(costs, assign, nbins) {
		if l > max {
			max = l
		}
	}
	return max
}

type bin struct {
	index int
	load  int64
}

type binHeap []*bin

func (h binHeap) Len() int { return len(h) }
func (h binHeap) Less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	return h[i].index < h[j].index
}
func (h binHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *binHeap) Push(x interface{}) { *h = append(*h, x.(*bin)) }
func (h *binHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
