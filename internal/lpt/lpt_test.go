package lpt

import (
	"cmp"
	"container/heap"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAssignBasic(t *testing.T) {
	costs := []int64{7, 5, 4, 3, 1}
	assign := Assign(costs, 2)
	if len(assign) != len(costs) {
		t.Fatalf("assignment length %d", len(assign))
	}
	// LPT: 7 -> bin0; 5 -> bin1; 4 -> bin1 (load 9 vs 7... no: bin0=7,
	// bin1=5, so 4 -> bin1=9; 3 -> bin0=10; 1 -> bin1=10). Makespan 10.
	if got := Makespan(costs, assign, 2); got != 10 {
		t.Fatalf("makespan = %d, want 10", got)
	}
}

func TestAssignSingleBin(t *testing.T) {
	costs := []int64{3, 1, 4}
	assign := Assign(costs, 1)
	for i, b := range assign {
		if b != 0 {
			t.Fatalf("task %d assigned to bin %d with 1 bin", i, b)
		}
	}
}

func TestAssignPanicsOnZeroBins(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Assign([]int64{1}, 0)
}

func TestZeroCostTasksSpread(t *testing.T) {
	costs := make([]int64, 100) // all zero
	assign := Assign(costs, 4)
	counts := make([]int, 4)
	for _, b := range assign {
		counts[b]++
	}
	for b, c := range counts {
		if c != 25 {
			t.Fatalf("bin %d got %d zero-cost tasks, want 25", b, c)
		}
	}
}

func TestAssignRange(t *testing.T) {
	f := func(raw []uint16, nbinsRaw uint8) bool {
		nbins := int(nbinsRaw%8) + 1
		costs := make([]int64, len(raw))
		for i, v := range raw {
			costs[i] = int64(v)
		}
		assign := Assign(costs, nbins)
		for _, b := range assign {
			if b < 0 || b >= nbins {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// LPT must never be worse than 4/3·OPT + max/3; against the trivial lower
// bound max(total/nbins, maxTask) this gives a checkable guarantee.
func TestLPTApproximationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		nbins := 1 + rng.Intn(8)
		costs := make([]int64, n)
		var total, maxTask int64
		for i := range costs {
			costs[i] = int64(rng.Intn(1000))
			total += costs[i]
			if costs[i] > maxTask {
				maxTask = costs[i]
			}
		}
		assign := Assign(costs, nbins)
		lower := (total + int64(nbins) - 1) / int64(nbins)
		if maxTask > lower {
			lower = maxTask
		}
		ms := Makespan(costs, assign, nbins)
		// 4/3 bound with slack for integer rounding.
		if ms*3 > lower*4+3 {
			t.Fatalf("trial %d: makespan %d exceeds 4/3 of lower bound %d", trial, ms, lower)
		}
	}
}

func TestLPTBeatsRoundRobinOnSkew(t *testing.T) {
	// One huge task and many small ones: round-robin by index can pair the
	// huge task with extra load, LPT never does.
	costs := []int64{1000, 1, 1, 1, 1, 1, 1, 1}
	assign := Assign(costs, 2)
	rr := make([]int, len(costs))
	for i := range rr {
		rr[i] = i % 2
	}
	if Makespan(costs, assign, 2) > Makespan(costs, rr, 2) {
		t.Fatalf("LPT makespan %d worse than round robin %d",
			Makespan(costs, assign, 2), Makespan(costs, rr, 2))
	}
	if got := Makespan(costs, assign, 2); got != 1000 {
		t.Fatalf("LPT makespan = %d, want 1000", got)
	}
}

func TestLoads(t *testing.T) {
	costs := []int64{5, 3, 2}
	assign := []int{0, 1, 0}
	loads := Loads(costs, assign, 2)
	if loads[0] != 7 || loads[1] != 3 {
		t.Fatalf("loads = %v", loads)
	}
}

func TestAssignEmpty(t *testing.T) {
	if got := Assign(nil, 3); len(got) != 0 {
		t.Fatalf("empty costs should give empty assignment, got %v", got)
	}
}

func TestBinHeapInterface(t *testing.T) {
	// Exercise the heap.Interface plumbing directly.
	h := binHeap{{index: 0, load: 5}, {index: 1, load: 2}}
	h.Push(&bin{index: 2, load: 1})
	if h.Len() != 3 {
		t.Fatalf("len = %d", h.Len())
	}
	got := h.Pop().(*bin)
	if got.index != 2 {
		t.Fatalf("Pop returned bin %d, want the last-pushed", got.index)
	}
	if h.Len() != 2 {
		t.Fatalf("len after pop = %d", h.Len())
	}
	// Less ties break by index for determinism.
	a, b := &bin{index: 0, load: 7}, &bin{index: 1, load: 7}
	hh := binHeap{a, b}
	if !hh.Less(0, 1) || hh.Less(1, 0) {
		t.Fatal("equal loads must order by index")
	}
}

func TestAssignZeroCostRoundRobin(t *testing.T) {
	// All-zero costs must take the round-robin path: tasks spread evenly
	// over the bins in order instead of piling onto the least-loaded one.
	const n, nbins = 10, 3
	assign := Assign(make([]int64, n), nbins)
	counts := make([]int, nbins)
	for i, b := range assign {
		if b != i%nbins {
			t.Fatalf("zero-cost task %d assigned to bin %d, want round-robin bin %d", i, b, i%nbins)
		}
		counts[b]++
	}
	for b, c := range counts {
		if c < n/nbins || c > n/nbins+1 {
			t.Fatalf("bin %d holds %d zero-cost tasks, want a balanced %d..%d", b, c, n/nbins, n/nbins+1)
		}
	}

	// Mixed: zero-cost tasks still round-robin from bin 0 in task order,
	// regardless of where the costly tasks land.
	costs := []int64{5, 0, 9, 0, 0, 2}
	assign = Assign(costs, nbins)
	rr := 0
	for i, c := range costs {
		if c != 0 {
			continue
		}
		if assign[i] != rr%nbins {
			t.Fatalf("zero-cost task %d assigned to bin %d, want %d", i, assign[i], rr%nbins)
		}
		rr++
	}
}

func TestAssignStableUnderEqualCosts(t *testing.T) {
	// Equal costs everywhere: the descending sort is stable and the heap
	// breaks load ties by bin index, so the placement must be exactly the
	// task-order round-robin — and identical across repeated calls. A
	// deterministic placement is what lets a coordinator re-derive task
	// ownership after failures.
	const n, nbins = 12, 4
	costs := make([]int64, n)
	for i := range costs {
		costs[i] = 7
	}
	first := Assign(costs, nbins)
	for i, b := range first {
		if b != i%nbins {
			t.Fatalf("equal-cost task %d assigned to bin %d, want %d", i, b, i%nbins)
		}
	}
	for trial := 0; trial < 5; trial++ {
		again := Assign(costs, nbins)
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("trial %d: task %d moved from bin %d to %d under identical input", trial, i, first[i], again[i])
			}
		}
	}
}

// assignFullSort is the reference Assign: every task, zero-cost ones
// included, stable-sorted by descending cost, then placed in that order.
func assignFullSort(costs []int64, nbins int) []int {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(costs[b], costs[a]) })
	loads := make(binHeap, nbins)
	for i := range loads {
		loads[i] = &bin{index: i}
	}
	heap.Init(&loads)
	out := make([]int, len(costs))
	rr := 0
	for _, task := range order {
		if costs[task] <= 0 {
			out[task] = rr % nbins
			rr++
			continue
		}
		b := loads[0]
		out[task] = b.index
		b.load += costs[task]
		heap.Fix(&loads, 0)
	}
	return out
}

// TestAssignMatchesFullSort: sorting only the costly tasks places every
// task as the full sort does, on cost vectors from all-costly to 99 %
// zero, drawn from few distinct values so ties abound, with a sprinkle
// of negative costs.
func TestAssignMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, zeroPct := range []int{0, 10, 50, 90, 97, 99} {
		for _, nbins := range []int{1, 3, 32} {
			for trial := 0; trial < 20; trial++ {
				costs := make([]int64, rng.Intn(3000))
				for i := range costs {
					switch r := rng.Intn(100); {
					case r < zeroPct:
					case r == 99 && trial%4 == 0:
						costs[i] = -rng.Int63n(3)
					default:
						costs[i] = 1 + rng.Int63n(8)
					}
				}
				got, want := Assign(costs, nbins), assignFullSort(costs, nbins)
				if !slices.Equal(got, want) {
					t.Fatalf("%d%% zero, %d bins, %d tasks: placement differs from the full sort", zeroPct, nbins, len(costs))
				}
			}
		}
	}
}
