package dpe

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/tuple"
)

// oneGroupSlab lays ts (sorted by x) out as a slab of one group, rank 0.
func oneGroupSlab(ts []tuple.Tuple) *colpipe.Slab {
	s := &colpipe.Slab{Ranks: []int32{0}, Starts: []int32{0, int32(len(ts))}}
	for _, t := range ts {
		s.Xs = append(s.Xs, t.Pt.X)
		s.Ys = append(s.Ys, t.Pt.Y)
		s.IDs = append(s.IDs, t.ID)
	}
	return s
}

// TestJoinSlabsZeroAllocs pins the kernel's scratch as bounded and
// pooled: over one group whose ε-window spans 5,000 S rows, the count
// mode of JoinSlabsTraced allocates nothing once its Buffers are warm.
func TestJoinSlabsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race")
	}
	rng := rand.New(rand.NewSource(5))
	const n = 5000
	var r, s []tuple.Tuple
	for i := 0; i < 16; i++ {
		r = append(r, tuple.Tuple{ID: int64(i), Pt: geom.Point{X: 0.2 + float64(i)/160, Y: rng.Float64() * 2}})
	}
	// Every S x lies within ε of every R x: one window of all n rows.
	for i := 0; i < n; i++ {
		s = append(s, tuple.Tuple{ID: 1<<40 | int64(i), Pt: geom.Point{X: 0.5 * float64(i) / n, Y: rng.Float64() * 2}})
	}
	rs, ss := oneGroupSlab(r), oneGroupSlab(s)
	const eps = 1.0
	var want sweep.Counter
	sweep.NestedLoop(r, s, eps, want.Emit)

	ctx := context.Background()
	got, err := JoinSlabsTraced(ctx, rs, ss, eps, nil, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Results != want.N || got.Checksum != want.Checksum {
		t.Fatalf("JoinSlabsTraced %d/%x, nested loop %d/%x", got.Results, got.Checksum, want.N, want.Checksum)
	}
	if want.N == 0 || want.N == int64(len(r)*len(s)) {
		t.Fatalf("%d of %d pairs match: the selection step is not exercised", want.N, len(r)*len(s))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := JoinSlabsTraced(ctx, rs, ss, eps, nil, false, false, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("count-mode JoinSlabsTraced allocated %v times per run, want 0", allocs)
	}
}

var errCountdown = errors.New("countdown expired")

// countdownCtx is a context whose Err turns non-nil after `after` calls:
// a deadline that expires at a chosen point of a join, without sleeps.
type countdownCtx struct {
	context.Context
	after int64
	calls atomic.Int64
}

func newCountdown(after int64) *countdownCtx {
	return &countdownCtx{Context: context.Background(), after: after}
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return errCountdown
	}
	return nil
}

// TestJoinSlabsStopsWithinOneGroup cancels a partition join part-way:
// JoinSlabsTraced must return the context's error having joined no group
// past the check that reported it, on the in-place sweep and on a lane
// kernel.
func TestJoinSlabsStopsWithinOneGroup(t *testing.T) {
	const groups, after = 50, 7
	// Group k holds one R and one S point at the same spot: one pair each.
	rs, ss := &colpipe.Slab{}, &colpipe.Slab{}
	for k := 0; k < groups; k++ {
		for _, sl := range []*colpipe.Slab{rs, ss} {
			sl.Ranks = append(sl.Ranks, int32(k))
			sl.Starts = append(sl.Starts, int32(k))
			sl.Xs = append(sl.Xs, float64(k))
			sl.Ys = append(sl.Ys, 0)
		}
		rs.IDs = append(rs.IDs, int64(k))
		ss.IDs = append(ss.IDs, 1<<40|int64(k))
	}
	rs.Starts = append(rs.Starts, groups)
	ss.Starts = append(ss.Starts, groups)

	for _, tc := range []struct {
		name   string
		kernel Kernel
	}{{"slab", nil}, {"lane kernel", NestedLoopKernel}} {
		full, err := JoinSlabsTraced(context.Background(), rs, ss, 0.5, tc.kernel, false, false, nil)
		if err != nil || full.Results != groups {
			t.Fatalf("%s: uncancelled join %d pairs, err %v; want %d", tc.name, full.Results, err, groups)
		}
		ctx := newCountdown(after)
		got, err := JoinSlabsTraced(ctx, rs, ss, 0.5, tc.kernel, false, false, nil)
		if !errors.Is(err, errCountdown) {
			t.Fatalf("%s: JoinSlabsTraced returned %v, want the context's error", tc.name, err)
		}
		if got.Results > after+1 {
			t.Fatalf("%s: %d groups joined after the context expired at check %d", tc.name, got.Results, after+1)
		}
		if calls := ctx.calls.Load(); calls != after+1 {
			t.Fatalf("%s: %d context checks, want %d (one per group until the first error)", tc.name, calls, after+1)
		}
	}
}

// TestExecuteContextStopsMidPartition expires the context after a few
// group checks, long before any partition ends: ExecuteContext must
// return that error instead of a result.
func TestExecuteContextStopsMidPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rs := randomTuples(rng, 3000, 20, 0)
	ss := randomTuples(rng, 3000, 20, 1_000_000)
	spec, _ := uniSpec(rs, ss, 0.5, 2, 4)
	pr, err := Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.ExecuteContext(newCountdown(5), ExecOptions{}); !errors.Is(err, errCountdown) {
		t.Fatalf("ExecuteContext returned %v, want the context's error", err)
	}
	if _, err := pr.ExecuteContext(context.Background(), ExecOptions{}); err != nil {
		t.Fatalf("the plan must stay usable after a cancelled execute: %v", err)
	}
}
