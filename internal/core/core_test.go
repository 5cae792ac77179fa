package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/tuple"
)

func clustered(rng *rand.Rand, n int, base int64) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	centers := []geom.Point{{X: 10, Y: 10}, {X: 30, Y: 25}, {X: 15, Y: 35}}
	for i := range out {
		c := centers[rng.Intn(len(centers))]
		out[i] = tuple.Tuple{
			ID: base + int64(i),
			Pt: geom.Point{X: c.X + rng.NormFloat64()*4, Y: c.Y + rng.NormFloat64()*4},
		}
	}
	return out
}

func oracleCount(rs, ss []tuple.Tuple, eps float64) sweep.Counter {
	var c sweep.Counter
	sweep.NestedLoop(rs, ss, eps, c.Emit)
	return c
}

func TestJoinMatchesOracleAllPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	rs := clustered(rng, 4000, 0)
	ss := clustered(rng, 4000, 1_000_000)
	eps := 0.8
	want := oracleCount(rs, ss, eps)

	for _, pol := range []agreements.Policy{agreements.LPiB, agreements.DIFF, agreements.UniR, agreements.UniS} {
		for _, useLPT := range []bool{false, true} {
			res, err := Join(rs, ss, Config{Eps: eps, Policy: pol, UseLPT: useLPT, Workers: 4, Seed: 42})
			if err != nil {
				t.Fatalf("%v lpt=%v: %v", pol, useLPT, err)
			}
			if res.Results != want.N || res.Checksum != want.Checksum {
				t.Fatalf("%v lpt=%v: results %d/%x, want %d/%x", pol, useLPT, res.Results, res.Checksum, want.N, want.Checksum)
			}
		}
	}
}

func TestJoinSimpleVariantMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rs := clustered(rng, 3000, 0)
	ss := clustered(rng, 3000, 1_000_000)
	eps := 0.7
	want := oracleCount(rs, ss, eps)
	res, err := Join(rs, ss, Config{Eps: eps, Simple: true, Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results != want.N || res.Checksum != want.Checksum {
		t.Fatalf("simple variant: results %d/%x, want %d/%x", res.Results, res.Checksum, want.N, want.Checksum)
	}
	if res.DedupTime <= 0 {
		t.Fatal("simple variant must run (and time) a dedup pass")
	}
}

func TestJoinCollect(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rs := clustered(rng, 500, 0)
	ss := clustered(rng, 500, 1_000_000)
	res, err := Join(rs, ss, Config{Eps: 1, Collect: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(res.Pairs)) != res.Results {
		t.Fatalf("collected %d pairs, counted %d", len(res.Pairs), res.Results)
	}
	for _, p := range res.Pairs {
		if p.RID >= 1_000_000 || p.SID < 1_000_000 {
			t.Fatalf("pair %v has swapped roles", p)
		}
	}
}

func TestJoinValidation(t *testing.T) {
	if _, err := Join(nil, nil, Config{Eps: 0}); err == nil {
		t.Error("expected error for eps=0")
	}
	if _, err := Join(nil, nil, Config{Eps: 1, Res: 1.5}); err == nil {
		t.Error("expected error for res<2")
	}
	if _, err := Join(nil, nil, Config{Eps: 1}); err != nil {
		t.Errorf("empty join should succeed: %v", err)
	}
	// A non-finite ε, and one whose grid would not fit (NX·NY wraps int at
	// 1e-12), fail before anything Cells-sized is allocated; the largest
	// grid still allowed is fine.
	world := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e-12, 1e-3} {
		if _, err := Join(nil, nil, Config{Eps: eps, Bounds: &world}); err == nil {
			t.Errorf("expected error for eps=%v", eps)
		}
	}
	in := Input{Config: Config{Eps: 50.0 / 2048}, Bounds: world}
	if g, err := in.Grid(2); err != nil || g.NumCells() != grid.MaxCells {
		t.Errorf("a %d-cell grid must be allowed: %v", grid.MaxCells, err)
	}
	in.Eps = 50.0 / 2049
	if _, err := in.Grid(2); err == nil || !strings.Contains(err.Error(), "cells") {
		t.Errorf("a grid one row and column past grid.MaxCells must be rejected: %v", err)
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	res, err := Join(nil, nil, Config{Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results != 0 || res.Replicated() != 0 {
		t.Fatalf("empty join: results %d, replicated %d", res.Results, res.Replicated())
	}
}

func TestJoinExposesGridAndGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	rs := clustered(rng, 200, 0)
	ss := clustered(rng, 200, 1_000_000)
	res, err := Join(rs, ss, Config{Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Grid == nil || res.Graph == nil {
		t.Fatal("grid/graph must be exposed")
	}
	if res.Grid.Res != 2 {
		t.Fatalf("default resolution = %v, want 2", res.Grid.Res)
	}
	if res.SampleTime < 0 || res.BuildTime <= 0 {
		t.Fatalf("phase times not recorded: sample=%v build=%v", res.SampleTime, res.BuildTime)
	}
}

func TestDataBounds(t *testing.T) {
	bounds := func(explicit *geom.Rect, rs, ss []tuple.Tuple) geom.Rect {
		t.Helper()
		b, err := DataBounds(explicit, rs, ss)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	explicit := geom.Rect{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5}
	if got := bounds(&explicit, nil, nil); got != explicit {
		t.Fatalf("explicit bounds ignored: %+v", got)
	}
	rs := []tuple.Tuple{{Pt: geom.Point{X: 1, Y: 2}}}
	ss := []tuple.Tuple{{Pt: geom.Point{X: 7, Y: -3}}}
	got := bounds(nil, rs, ss)
	if (got != geom.Rect{MinX: 1, MinY: -3, MaxX: 7, MaxY: 2}) {
		t.Fatalf("computed bounds = %+v", got)
	}
	// Degenerate extents get padded.
	one := []tuple.Tuple{{Pt: geom.Point{X: 3, Y: 4}}}
	got = bounds(nil, one, nil)
	if got.Width() <= 0 || got.Height() <= 0 {
		t.Fatalf("degenerate bounds not padded: %+v", got)
	}
	// Empty inputs get the unit square.
	got = bounds(nil, nil, nil)
	if got.Width() <= 0 || got.Height() <= 0 {
		t.Fatalf("empty bounds invalid: %+v", got)
	}
	// A non-finite point has no MBR: the error names its set and row.
	bad := append(slices.Clone(ss), tuple.Tuple{ID: 9, Pt: geom.Point{X: 1, Y: math.Inf(-1)}})
	_, err := DataBounds(nil, rs, bad)
	var nf *tuple.NonFiniteError
	if !errors.As(err, &nf) || nf.Set != tuple.S || nf.Row != 1 || nf.ID != 9 {
		t.Fatalf("non-finite S row 1: err %v", err)
	}
}

func TestParallelism(t *testing.T) {
	w, p := Parallelism(4, 0)
	if w != 4 || p != 32 {
		t.Fatalf("Parallelism(4,0) = %d,%d, want 4,32", w, p)
	}
	w, p = Parallelism(4, 96)
	if w != 4 || p != 96 {
		t.Fatalf("explicit partitions overridden: %d,%d", w, p)
	}
	_, p = Parallelism(0, 0)
	if p <= 0 {
		t.Fatalf("default partitions = %d", p)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	rs := clustered(rng, 2000, 0)
	ss := clustered(rng, 2000, 1_000_000)
	var first *Result
	for _, w := range []int{1, 2, 7} {
		res, err := Join(rs, ss, Config{Eps: 0.9, Workers: w, Partitions: 40, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.Results != first.Results || res.Checksum != first.Checksum {
			t.Fatalf("worker count %d changed results: %d/%x vs %d/%x",
				w, res.Results, res.Checksum, first.Results, first.Checksum)
		}
		if res.Replicated() != first.Replicated() {
			t.Fatalf("worker count %d changed replication: %d vs %d", w, res.Replicated(), first.Replicated())
		}
	}
}

// Every Algorithm 1 edge order must stay exact — the order only affects
// how much replication the duplicate-free resolution costs.
func TestAllEdgeOrdersExact(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	rs := clustered(rng, 3000, 0)
	ss := clustered(rng, 3000, 1_000_000)
	eps := 0.9
	want := oracleCount(rs, ss, eps)
	for _, order := range []agreements.Order{
		agreements.OrderPaper, agreements.OrderWeightOnly, agreements.OrderIndex,
	} {
		res, err := Join(rs, ss, Config{Eps: eps, Order: order, Workers: 3, Seed: 4})
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		if res.Results != want.N || res.Checksum != want.Checksum {
			t.Fatalf("order %v: results %d/%x, want %d/%x", order, res.Results, res.Checksum, want.N, want.Checksum)
		}
	}
}

// TestPlanSameAtEveryPoolSize: the plan's parallel steps give the same
// graph of agreements (every quartet word and assignment slot), Hilbert
// ranks and LPT partition table on one goroutine as on the default
// GOMAXPROCS — raised to at least 4 here so the parallel path runs — and
// the same join answer.
func TestPlanSameAtEveryPoolSize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	rng := rand.New(rand.NewSource(44))
	rs := clustered(rng, 6000, 0)
	ss := clustered(rng, 6000, 1_000_000)
	type built struct {
		plan *Plan
		spec dpe.Spec
	}
	build := func(pool int) built {
		var b built
		scheme := func(in Input, spec *dpe.Spec, p *Plan) error {
			err := adaptive(in, spec, p)
			b.spec = *spec
			return err
		}
		p, err := BuildPlan(rs, ss, Config{Eps: 0.5, UseLPT: true, Workers: 4, Seed: 9, PoolSize: pool, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		b.plan = p
		return b
	}
	serial := build(1)
	g := serial.plan.Grid
	if marked, _ := serial.plan.Graph.EdgeCounts(); marked == 0 || g.NY < 8 {
		t.Fatalf("%d marked edges over %d cell rows: too small a plan to test", marked, g.NY)
	}
	if len(serial.spec.Placement) != serial.spec.Cells {
		t.Fatalf("LPT placement of %d cells, want %d", len(serial.spec.Placement), serial.spec.Cells)
	}
	serialRes, err := serial.plan.Execute(Exec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pool := range []int{0, 3} {
		b := build(pool)
		for gy := 0; gy <= g.NY; gy++ {
			for gx := 0; gx <= g.NX; gx++ {
				if b.plan.Graph.Quartet(gx, gy) != serial.plan.Graph.Quartet(gx, gy) {
					t.Fatalf("pool %d: quartet (%d, %d) differs from the one-goroutine plan", pool, gx, gy)
				}
				for i := grid.Pos(0); i < grid.NumPos; i++ {
					for _, set := range []tuple.Set{tuple.R, tuple.S} {
						if b.plan.Graph.Slot(gx, gy, i, set) != serial.plan.Graph.Slot(gx, gy, i, set) {
							t.Fatalf("pool %d: quartet (%d, %d) slot (%d, %v) differs", pool, gx, gy, i, set)
						}
					}
				}
			}
		}
		if !slices.Equal(b.spec.CellRank, serial.spec.CellRank) {
			t.Fatalf("pool %d: Hilbert ranks differ", pool)
		}
		if !slices.Equal(b.spec.Placement, serial.spec.Placement) {
			t.Fatalf("pool %d: LPT partition table differs", pool)
		}
		res, err := b.plan.Execute(Exec{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Results != serialRes.Results || res.Checksum != serialRes.Checksum || res.Replicated() != serialRes.Replicated() {
			t.Fatalf("pool %d: %d pairs/%x, %d replicated; one goroutine: %d/%x, %d", pool,
				res.Results, res.Checksum, res.Replicated(), serialRes.Results, serialRes.Checksum, serialRes.Replicated())
		}
	}
}
