package dpe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/tuple"
)

// referenceSlabs builds, without the engine, the slabs Prepare must
// produce for one input side: every row is assigned by calling the
// spec's own assignment function, placed by the spec's table (or the
// hash without one), bucketed by partition and rank in (worker, input)
// order — worker w owns the w-th contiguous split — and each bucket is
// stable-sorted by x.
func referenceSlabs(spec Spec, set tuple.Set, workers int) []colpipe.Slab {
	in, assign := spec.R, spec.AssignR
	if set == tuple.S {
		in, assign = spec.S, spec.AssignS
	}
	nparts := spec.Partitions
	out := make([]colpipe.Slab, nparts)
	buckets := make([]map[int32][]tuple.Tuple, nparts)
	payload := make([][]int64, nparts)
	for p := range out {
		out[p].WorkerRows = make([]int32, workers)
		out[p].WorkerBytes = make([]int64, workers)
		buckets[p] = map[int32][]tuple.Tuple{}
		payload[p] = make([]int64, workers)
	}
	chunk := (len(in) + workers - 1) / workers
	var cells []int
	for i, tu := range in {
		w := i / chunk
		cells = assign(i, set, cells[:0])
		for _, c := range cells {
			rk := int32(c)
			if spec.CellRank != nil {
				rk = spec.CellRank[c]
			}
			p := hashPartition(c, nparts)
			if spec.Placement != nil {
				p = spec.Placement[c]
			}
			buckets[p][rk] = append(buckets[p][rk], tu)
			out[p].WorkerRows[w]++
			out[p].WorkerBytes[w] += int64(tu.KeyedSize())
			out[p].Bytes += int64(tu.KeyedSize())
			if spec.Payloads {
				payload[p][w] += int64(len(tu.Payload))
			}
		}
	}
	for p := range out {
		s := &out[p]
		withLane := false
		for _, n := range payload[p] {
			withLane = withLane || n > 0
		}
		if withLane {
			s.WorkerPayload = payload[p]
		}
		for rk := range buckets[p] {
			s.Ranks = append(s.Ranks, rk)
		}
		slices.Sort(s.Ranks)
		for _, rk := range s.Ranks {
			rows := buckets[p][rk]
			sort.SliceStable(rows, func(i, j int) bool { return rows[i].Pt.X < rows[j].Pt.X })
			s.Starts = append(s.Starts, int32(len(s.IDs)))
			for _, tu := range rows {
				s.Xs, s.Ys, s.IDs = append(s.Xs, tu.Pt.X), append(s.Ys, tu.Pt.Y), append(s.IDs, tu.ID)
				if withLane {
					s.Payloads = append(s.Payloads, tu.Payload)
				}
			}
		}
		s.Starts = append(s.Starts, int32(len(s.IDs)))
	}
	return out
}

func diffSlab(got, want *colpipe.Slab) string {
	switch {
	case !slices.Equal(got.Ranks, want.Ranks):
		return fmt.Sprintf("Ranks %v, want %v", got.Ranks, want.Ranks)
	case !slices.Equal(got.Starts, want.Starts):
		return fmt.Sprintf("Starts %v, want %v", got.Starts, want.Starts)
	case !slices.Equal(got.Xs, want.Xs):
		return "Xs differ"
	case !slices.Equal(got.Ys, want.Ys):
		return "Ys differ"
	case !slices.Equal(got.IDs, want.IDs):
		return fmt.Sprintf("IDs %v, want %v", got.IDs, want.IDs)
	case (got.Payloads == nil) != (want.Payloads == nil) || !slices.EqualFunc(got.Payloads, want.Payloads, bytes.Equal):
		return fmt.Sprintf("Payloads differ (%d rows, want %d)", len(got.Payloads), len(want.Payloads))
	case got.Bytes != want.Bytes:
		return fmt.Sprintf("Bytes %d, want %d", got.Bytes, want.Bytes)
	case !slices.Equal(got.WorkerRows, want.WorkerRows):
		return fmt.Sprintf("WorkerRows %v, want %v", got.WorkerRows, want.WorkerRows)
	case !slices.Equal(got.WorkerBytes, want.WorkerBytes):
		return fmt.Sprintf("WorkerBytes %v, want %v", got.WorkerBytes, want.WorkerBytes)
	case (got.WorkerPayload == nil) != (want.WorkerPayload == nil) || !slices.Equal(got.WorkerPayload, want.WorkerPayload):
		return fmt.Sprintf("WorkerPayload %v, want %v", got.WorkerPayload, want.WorkerPayload)
	}
	return ""
}

// TestShuffleMatchesReference is the differential test of the fused map
// → layout → scatter → sort: every field of every slab must equal the
// reference built above, for the border-heavy workloads, an empty side,
// more workers than rows, a single worker, one cell crowded enough for
// the radix group sort (spread x, lattice ties, a near-equal cluster
// plus an outlier), identity and Hilbert ranks, a placement table, and
// a Kernel plan with the payload switch on (payloads ride in the lane)
// and off (they stay behind) — at PoolSize 1 and 4. Equality with one reference at both pool sizes is what makes the
// parallel scatter deterministic, not merely race-free.
func TestShuffleMatchesReference(t *testing.T) {
	const eps = 0.5
	type input struct {
		name    string
		rs, ss  []tuple.Tuple
		workers int
	}
	var inputs []input
	for name, w := range columnarWorkloads(eps) {
		inputs = append(inputs, input{name, w[0], w[1], 3})
	}
	rng := rand.New(rand.NewSource(77))
	few := randomTuples(rng, 5, 20, 0)
	many := randomTuples(rng, 900, 20, 1_000_000)
	inputs = append(inputs,
		input{"empty-side", many, nil, 3},
		input{"workers>rows", few, many, 16},
		input{"one-worker", many, few, 1},
	)
	// Groups past insertionSortMax take the radix sort: one 1×1 cell
	// (side 2ε) holding 2,000 rows a side, once with x spread over the
	// cell, once snapped to 8 lattice values (ties the sort must keep in
	// row order), once as 999 rows within 1e-9 of each other plus an
	// outlier (one key run holding almost every row).
	inCell := func(n int, base int64, x func(i int) float64) []tuple.Tuple {
		out := make([]tuple.Tuple, n)
		for i := range out {
			out[i] = tuple.Tuple{ID: base + int64(i), Pt: geom.Point{X: x(i), Y: 5.1 + 0.8*rng.Float64()}}
		}
		return out
	}
	spread := func(int) float64 { return 5.1 + 0.8*rng.Float64() }
	lattice := func(int) float64 { return 5.1 + 0.1*float64(rng.Intn(8)) }
	cluster := func(i int) float64 {
		if i == 500 {
			return 5.8
		}
		return 5.3 + 1e-9*rng.Float64()
	}
	inputs = append(inputs,
		input{"one-cell-2000", inCell(2000, 0, spread), inCell(2000, 1_000_000, spread), 3},
		input{"one-cell-lattice-ties", inCell(2000, 0, lattice), inCell(2000, 1_000_000, lattice), 3},
		input{"one-cell-cluster+outlier", inCell(1000, 0, cluster), inCell(1000, 1_000_000, cluster), 3},
	)

	stamp := func(ts []tuple.Tuple) []tuple.Tuple {
		out := slices.Clone(ts)
		for i := range out {
			if i%5 != 0 { // every fifth row travels bare
				out[i].Payload = binary.LittleEndian.AppendUint64(nil, uint64(out[i].ID))
			}
		}
		return out
	}
	for _, in := range inputs {
		for _, variant := range []string{"identity", "hilbert", "placement-table", "payload-switch-on", "payload-switch-off"} {
			kernel := variant == "payload-switch-on" || variant == "payload-switch-off"
			rs, ss := in.rs, in.ss
			if kernel {
				rs, ss = stamp(rs), stamp(ss)
			}
			spec, _ := columnarSpec(rs, ss, eps, in.workers, 8, variant == "hilbert")
			if variant == "placement-table" {
				spec.Placement = make([]int, spec.Cells)
				for c := range spec.Placement {
					spec.Placement[c] = c * 5 % spec.Partitions
				}
			}
			if kernel {
				spec.Kernel = NestedLoopKernel
				spec.Payloads = variant == "payload-switch-on"
			}
			want := [2][]colpipe.Slab{
				referenceSlabs(spec, tuple.R, in.workers),
				referenceSlabs(spec, tuple.S, in.workers),
			}
			for _, pool := range []int{1, 4} {
				spec.PoolSize = pool
				pr, err := Prepare(spec)
				if err != nil {
					t.Fatalf("%s/%s pool=%d: %v", in.name, variant, pool, err)
				}
				for p := 0; p < pr.NumPartitions(); p++ {
					gr, gs := pr.Slabs(p)
					for side, got := range [2]*colpipe.Slab{gr, gs} {
						if d := diffSlab(got, &want[side][p]); d != "" {
							t.Fatalf("%s/%s pool=%d partition %d side %d: %s", in.name, variant, pool, p, side, d)
						}
					}
				}
			}
		}
	}
}

// TestWideObjectKeepsEveryReplica: one R object is assigned to 300
// cells — more than a one-byte replica count could log — and one S
// point sits in each of them. The join must find all 300 pairs, the
// set the nested loop finds.
func TestWideObjectKeepsEveryReplica(t *testing.T) {
	const cells, eps = 300, 1.0
	rng := rand.New(rand.NewSource(5))
	wide := tuple.Tuple{ID: 7, Pt: geom.Point{X: 10, Y: 10}}
	rs := []tuple.Tuple{wide}
	for i := 0; i < 40; i++ { // ordinary rows around it, far from every S point
		rs = append(rs, tuple.Tuple{ID: 100 + int64(i), Pt: geom.Point{X: 50 + rng.Float64(), Y: 50 + rng.Float64()}})
	}
	rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	var ss []tuple.Tuple
	for c := 0; c < cells; c++ {
		ss = append(ss, tuple.Tuple{ID: 1_000_000 + int64(c), Pt: geom.Point{X: 10 + 0.5*rng.Float64(), Y: 10 + 0.5*rng.Float64()}})
	}
	spec := Spec{
		R: rs, S: ss, Eps: eps,
		AssignR: func(row int, _ tuple.Set, dst []int) []int {
			if tu := rs[row]; tu.ID != wide.ID {
				return append(dst, int(tu.ID)%cells)
			}
			for c := 0; c < cells; c++ {
				dst = append(dst, c)
			}
			return dst
		},
		AssignS: func(row int, _ tuple.Set, dst []int) []int {
			return append(dst, int(ss[row].ID-1_000_000))
		},
		Cells:      cells,
		Partitions: 7,
		Workers:    2,
		Collect:    true,
	}
	got, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.ReplicatedR != cells-1 {
		t.Fatalf("%d R replicas, want %d", got.ReplicatedR, cells-1)
	}
	var want sweep.Collector
	sweep.NestedLoop(rs, ss, eps, want.Emit)
	sortPairs(got.Pairs)
	sortPairs(want.Pairs)
	if len(want.Pairs) != cells || !slices.Equal(got.Pairs, want.Pairs) {
		t.Fatalf("%d pairs, the nested loop %d (want %d)", len(got.Pairs), len(want.Pairs), cells)
	}
}

// TestPrepareAllocationBudget guards what the fused shuffle is for: a
// Prepare may allocate the slab lanes it returns (24 B per row), the
// 4-byte-per-row assignment logs and group directories, and the
// Cells-sized routing and cursor tables — not a second copy of the rows
// on the way. Rows staged in per-worker segments and re-permuted into
// the slabs cost more than four times the lanes. Both a uniform input
// and a skewed one, whose groups of thousands of rows take the radix
// group sort and size its scratch, must stay under 2× the lanes.
func TestPrepareAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build allocates a temporary per lane (append-of-make is not fused under instrumentation)")
	}
	const n, eps = 50_000, 0.447 // 112×112 cells of side 2ε: ~4 points per cell per side
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	g := grid.New(bounds, eps, 2)
	rng := rand.New(rand.NewSource(19))
	// skewed packs most rows into a few Gaussian clusters, so the largest
	// groups run to thousands of rows and take the radix group sort,
	// whose scratch is sized by the largest group of each slab.
	skewed := func(base int64) []tuple.Tuple {
		out := randomTuples(rng, n, 100, base)
		for i := range out[:n*3/4] {
			c := float64(i % 5)
			out[i].Pt = geom.Point{X: 10 + 18*c + 0.4*rng.NormFloat64(), Y: 50 + 0.4*rng.NormFloat64()}
		}
		return out
	}
	for _, in := range []struct {
		name   string
		rs, ss []tuple.Tuple
	}{
		{"uniform", randomTuples(rng, n, 100, 0), randomTuples(rng, n, 100, 1_000_000)},
		{"skewed", skewed(0), skewed(1_000_000)},
	} {
		spec := Spec{
			R: in.rs, S: in.ss, Eps: eps,
			AssignR: universal(g, in.rs, true),
			AssignS: universal(g, in.ss, false),
			Cells:   g.NumCells(), CellRank: colpipe.HilbertRanks(g.NX, g.NY),
			Partitions: 32,
			Workers:    4,
		}
		if _, err := Prepare(spec); err != nil { // warm
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		pr, err := Prepare(spec)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		var rows int64
		biggest := 0
		for p := 0; p < pr.NumPartitions(); p++ {
			rs, ss := pr.Slabs(p)
			rows += int64(rs.Rows() + ss.Rows())
			for k := 0; k < rs.NumGroups(); k++ {
				lo, hi := rs.Group(k)
				biggest = max(biggest, hi-lo)
			}
		}
		lanes := 24 * rows
		// Per cell: the rank → partition table (4 B) and one 4-byte cursor
		// per worker per side.
		tables := int64(4+4*2*spec.Workers) * int64(spec.Cells)
		got := int64(m1.TotalAlloc - m0.TotalAlloc)
		t.Logf("%s, %d rows, largest R group %d: allocated %d B = %.2f × the %d B of lanes (+ %d B of tables)",
			in.name, rows, biggest, got, float64(got-tables)/float64(lanes), lanes, tables)
		if got > 2*lanes+tables {
			t.Fatalf("%s: Prepare allocated %d B for %d B of slab lanes and %d B of per-cell tables: over the 2× budget", in.name, got, lanes, tables)
		}
	}
}
