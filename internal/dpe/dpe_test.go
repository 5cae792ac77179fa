package dpe

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/replicate"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/tuple"
)

func randomTuples(rng *rand.Rand, n int, extent float64, base int64) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	for i := range out {
		out[i] = tuple.Tuple{
			ID: base + int64(i),
			Pt: geom.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent},
		}
	}
	return out
}

// universal is the universal assignment of the rows of in over g: each
// row's native cell, plus its ε-neighbour cells when repl.
func universal(g *grid.Grid, in []tuple.Tuple, repl bool) Assign {
	return func(row int, _ tuple.Set, dst []int) []int {
		return replicate.Universal(g, in[row].Pt, repl, dst)
	}
}

// uniSpec builds a UNI(R) PBSM spec over a fresh grid.
func uniSpec(rs, ss []tuple.Tuple, eps float64, workers, nparts int) (Spec, *grid.Grid) {
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 20, MaxY: 20}
	g := grid.New(bounds, eps, 2)
	spec := Spec{
		R: rs, S: ss, Eps: eps,
		AssignR:    universal(g, rs, true),
		AssignS:    universal(g, ss, false),
		Cells:      g.NumCells(),
		Partitions: nparts,
		Workers:    workers,
	}
	return spec, g
}

func TestRunMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rs := randomTuples(rng, 3000, 20, 0)
	ss := randomTuples(rng, 3000, 20, 1_000_000)
	eps := 0.5

	var want sweep.Counter
	sweep.NestedLoop(rs, ss, eps, want.Emit)

	for _, workers := range []int{1, 3, 8} {
		for _, nparts := range []int{1, 7, 32} {
			spec, _ := uniSpec(rs, ss, eps, workers, nparts)
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Results != want.N || res.Checksum != want.Checksum {
				t.Fatalf("workers=%d parts=%d: results %d/%x, want %d/%x",
					workers, nparts, res.Results, res.Checksum, want.N, want.Checksum)
			}
		}
	}
}

func TestRunCollectPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rs := randomTuples(rng, 500, 20, 0)
	ss := randomTuples(rng, 500, 20, 1_000_000)
	spec, _ := uniSpec(rs, ss, 0.8, 4, 16)
	spec.Collect = true
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(res.Pairs)) != res.Results {
		t.Fatalf("collected %d pairs, counted %d", len(res.Pairs), res.Results)
	}
	var c sweep.Collector
	sweep.NestedLoop(rs, ss, 0.8, c.Emit)
	sortPairs(res.Pairs)
	sortPairs(c.Pairs)
	for i := range c.Pairs {
		if res.Pairs[i] != c.Pairs[i] {
			t.Fatalf("pair %d: %v vs %v", i, res.Pairs[i], c.Pairs[i])
		}
	}
}

func sortPairs(ps []tuple.Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].RID != ps[j].RID {
			return ps[i].RID < ps[j].RID
		}
		return ps[i].SID < ps[j].SID
	})
}

func TestReplicationCounts(t *testing.T) {
	// One R point near a cell border, one interior; S not replicated.
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 8, MaxY: 8}
	g := grid.New(bounds, 1, 4) // 2x2 cells of side 4
	rs := []tuple.Tuple{
		{ID: 1, Pt: geom.Point{X: 3.5, Y: 2}}, // within eps of east neighbour only
		{ID: 2, Pt: geom.Point{X: 2, Y: 2}},   // interior: no replication
	}
	ss := []tuple.Tuple{{ID: 3, Pt: geom.Point{X: 4.4, Y: 2}}}
	spec := Spec{
		R: rs, S: ss, Eps: 1,
		AssignR:    universal(g, rs, true),
		AssignS:    universal(g, ss, false),
		Cells:      g.NumCells(),
		Partitions: 4,
		Workers:    2,
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplicatedR != 1 || res.ReplicatedS != 0 {
		t.Fatalf("replicated R/S = %d/%d, want 1/0", res.ReplicatedR, res.ReplicatedS)
	}
	if res.Results != 1 {
		t.Fatalf("results = %d, want 1", res.Results)
	}
	if res.Replicated() != 1 {
		t.Fatalf("Replicated() = %d", res.Replicated())
	}
}

func TestShuffleByteAccounting(t *testing.T) {
	// One R tuple assigned to exactly one cell, one S tuple likewise, no
	// payloads: shuffled bytes must be exactly 2 keyed tuples of 32 bytes.
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 8, MaxY: 8}
	g := grid.New(bounds, 1, 4) // interior points of a 4-wide cell do not replicate
	rs := []tuple.Tuple{{ID: 1, Pt: geom.Point{X: 2, Y: 2}}}
	ss := []tuple.Tuple{{ID: 2, Pt: geom.Point{X: 2.2, Y: 2}}}
	spec := Spec{
		R: rs, S: ss, Eps: 1,
		AssignR:    universal(g, rs, true),
		AssignS:    universal(g, ss, false),
		Cells:      g.NumCells(),
		Partitions: 8,
		Workers:    4,
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShuffledBytes != 64 {
		t.Fatalf("shuffled bytes = %d, want 64", res.ShuffledBytes)
	}
	if res.RemoteBytes > res.ShuffledBytes {
		t.Fatalf("remote bytes %d > shuffled %d", res.RemoteBytes, res.ShuffledBytes)
	}
}

func TestPayloadsIncreaseShuffle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := randomTuples(rng, 1000, 20, 0)
	other := randomTuples(rng, 1000, 20, 1_000_000)
	spec0, _ := uniSpec(base, other, 0.5, 4, 16)
	res0, err := Run(spec0)
	if err != nil {
		t.Fatal(err)
	}
	specBig, _ := uniSpec(tuple.WithPayloads(base, 128), tuple.WithPayloads(other, 128), 0.5, 4, 16)
	resBig, err := Run(specBig)
	if err != nil {
		t.Fatal(err)
	}
	if resBig.ShuffledBytes <= res0.ShuffledBytes {
		t.Fatalf("128-byte payloads did not grow shuffle: %d vs %d", resBig.ShuffledBytes, res0.ShuffledBytes)
	}
	if resBig.Results != res0.Results {
		t.Fatalf("payloads changed results: %d vs %d", resBig.Results, res0.Results)
	}
	wantGrowth := res0.ShuffledBytes / 32 * 128 // 128 extra bytes per keyed record
	if got := resBig.ShuffledBytes - res0.ShuffledBytes; got != wantGrowth {
		t.Fatalf("shuffle growth = %d, want %d", got, wantGrowth)
	}
}

func TestDedupSpec(t *testing.T) {
	// Duplicate results via an assignment that sends BOTH sets to both
	// neighbouring cells: every near-border pair is found twice.
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 20, MaxY: 20}
	g := grid.New(bounds, 1, 2)
	rng := rand.New(rand.NewSource(6))
	rs := randomTuples(rng, 2000, 20, 0)
	ss := randomTuples(rng, 2000, 20, 1_000_000)
	var want sweep.Counter
	sweep.NestedLoop(rs, ss, 1, want.Emit)

	spec := Spec{
		R: rs, S: ss, Eps: 1,
		AssignR: universal(g, rs, true), AssignS: universal(g, ss, true),
		Cells:      g.NumCells(),
		Partitions: 16, Workers: 4,
		Dedup: true,
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Results != want.N || res.Checksum != want.Checksum {
		t.Fatalf("dedup results %d/%x, want %d/%x", res.Results, res.Checksum, want.N, want.Checksum)
	}
	// Without dedup the same spec must overcount.
	spec.Dedup = false
	raw, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Results <= want.N {
		t.Fatalf("expected duplicates without dedup: %d vs oracle %d", raw.Results, want.N)
	}
}

// TestPlacementTable: a placement table puts every cell's rows in the
// partition it names, and a table that is not Cells long or names a
// partition outside [0, Partitions) is an error from Prepare.
func TestPlacementTable(t *testing.T) {
	rs := tuple.FromPoints([]geom.Point{{X: 0.5, Y: 0}, {X: 1.5, Y: 0}, {X: 2.5, Y: 0}, {X: 3.5, Y: 0}}, 0)
	cellOf := func(row int, _ tuple.Set, dst []int) []int { return append(dst, int(rs[row].Pt.X)) }
	spec := Spec{
		R: rs, S: rs, Eps: 0.1,
		AssignR: cellOf, AssignS: cellOf,
		Cells: 4, Partitions: 2, Placement: []int{1, 0, 1, 1},
	}
	pr, err := Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	for p, wantIDs := range [][]int64{{1}, {0, 2, 3}} {
		if r, s := pr.Slabs(p); !slices.Equal(r.IDs, wantIDs) || !slices.Equal(s.IDs, wantIDs) {
			t.Errorf("partition %d holds R %v and S %v, want %v", p, r.IDs, s.IDs, wantIDs)
		}
	}
	for _, table := range [][]int{{0, 1, 0}, {0, 1, 0, 1, 0}, {0, 1, 2, 0}, {0, -1, 0, 0}} {
		bad := spec
		bad.Placement = table
		if _, err := Prepare(bad); err == nil {
			t.Errorf("placement %v of 4 cells over 2 partitions accepted", table)
		}
	}
}

func TestHashPlacementRange(t *testing.T) {
	counts := make([]int, 7)
	for c := 0; c < 10000; c++ {
		p := hashPartition(c, 7)
		if p < 0 || p >= 7 {
			t.Fatalf("partition %d out of range", p)
		}
		counts[p]++
	}
	for p, c := range counts {
		if c < 1000 || c > 2000 {
			t.Fatalf("partition %d badly balanced: %d of 10000", p, c)
		}
	}
}

func TestRunValidation(t *testing.T) {
	ok := Spec{
		Eps:        1,
		AssignR:    func(_ int, _ tuple.Set, d []int) []int { return append(d, 0) },
		AssignS:    func(_ int, _ tuple.Set, d []int) []int { return append(d, 0) },
		Cells:      1,
		Partitions: 1,
	}
	bad := ok
	bad.Eps = 0
	if _, err := Run(bad); err == nil {
		t.Error("expected error for eps=0")
	}
	bad = ok
	bad.AssignR = nil
	if _, err := Run(bad); err == nil {
		t.Error("expected error for nil AssignR")
	}
	bad = ok
	bad.Partitions = 0
	if _, err := Run(bad); err == nil {
		t.Error("expected error for no partitions")
	}
	bad = ok
	bad.Cells = 0
	if _, err := Run(bad); err == nil {
		t.Error("expected error for missing Cells")
	}
	bad = ok
	bad.CellRank = []int32{0, 1}
	if _, err := Run(bad); err == nil {
		t.Error("expected error for a CellRank that does not rank Cells cells")
	}
	if _, err := Run(ok); err != nil {
		t.Errorf("valid empty spec failed: %v", err)
	}
}

func TestWorkerBusyReported(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rs := randomTuples(rng, 2000, 20, 0)
	ss := randomTuples(rng, 2000, 20, 1_000_000)
	spec, _ := uniSpec(rs, ss, 0.5, 3, 12)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MapBusy) != 3 || len(res.WorkerBusy) != 3 {
		t.Fatalf("busy entries = %d/%d, want 3", len(res.MapBusy), len(res.WorkerBusy))
	}
	if res.MaxPartitionCost <= 0 || res.TotalPartitionCost < res.MaxPartitionCost {
		t.Fatalf("partition cost max %d total %d, want 0 < max <= total", res.MaxPartitionCost, res.TotalPartitionCost)
	}
	if res.TotalTime() <= 0 {
		t.Fatal("total time must be positive")
	}
}

// TestCheckParallelism: a workers count, a partitions count or a
// workers × (cells + 8 × partitions) budget past the grid package's bounds
// is an error from Prepare before any table of that size exists.
func TestCheckParallelism(t *testing.T) {
	ok := [][3]int{{1, 1, 1}, {grid.MaxWorkers, 8, 1}, {2, grid.MaxPartitions, 1}, {15, 120, grid.MaxCells}}
	for _, c := range ok {
		if err := CheckParallelism(c[0], c[1], c[2]); err != nil {
			t.Errorf("workers=%d partitions=%d cells=%d: %v", c[0], c[1], c[2], err)
		}
	}
	bad := [][3]int{
		{2_000_000_000, 16, 1},
		{2, 2_000_000_000, 1},
		{1000, 8000, 1 << 20},
		{1024, grid.MaxPartitions, 1},
		{grid.MaxWorkers + 1, 1, 1},
		{1, grid.MaxPartitions + 1, 1},
	}
	for _, c := range bad {
		if err := CheckParallelism(c[0], c[1], c[2]); err == nil {
			t.Errorf("workers=%d partitions=%d cells=%d accepted", c[0], c[1], c[2])
		}
	}
	rs := tuple.FromPoints([]geom.Point{{X: 1, Y: 1}}, 0)
	assign := func(_ int, _ tuple.Set, dst []int) []int { return append(dst, 0) }
	for _, c := range bad {
		spec := Spec{R: rs, S: rs, Eps: 1, AssignR: assign, AssignS: assign, Cells: c[2], Partitions: c[1], Workers: c[0]}
		if _, err := Prepare(spec); err == nil {
			t.Errorf("Prepare accepted workers=%d partitions=%d cells=%d", c[0], c[1], c[2])
		}
	}
}

// TestEachWorkerStartsAtMostPool: many simulated workers run on at most
// pool goroutines, not one goroutine each.
func TestEachWorkerStartsAtMostPool(t *testing.T) {
	base := runtime.NumGoroutine()
	var peak, ran atomic.Int64
	eachWorker(5000, 2, func(int) {
		if n := int64(runtime.NumGoroutine() - base); n > peak.Load() {
			peak.Store(n)
		}
		ran.Add(1)
	})
	if ran.Load() != 5000 {
		t.Fatalf("ran %d workers, want 5000", ran.Load())
	}
	if peak.Load() > 2 {
		t.Fatalf("%d goroutines in flight, want at most the pool's 2", peak.Load())
	}
}
