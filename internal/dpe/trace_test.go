package dpe

import (
	"context"
	"math/rand"
	"testing"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/tuple"
)

// tracePartition builds one reduce partition's two slabs: n points per
// side spread over four cells.
func tracePartition(n int) (rs, ss *colpipe.Slab) {
	rng := rand.New(rand.NewSource(11))
	segR, segS := make([]colpipe.Seg, 1), make([]colpipe.Seg, 1)
	for i := 0; i < n; i++ {
		segR[0].Append(int32(i%4), rng.Float64()*4, rng.Float64()*4, int64(i), 32)
		segS[0].Append(int32(i%4), rng.Float64()*4, rng.Float64()*4, 1<<40|int64(i), 32)
	}
	b := colpipe.NewBuilder(4)
	rs, ss = &colpipe.Slab{}, &colpipe.Slab{}
	b.BuildInto(rs, segR)
	b.BuildInto(ss, segS)
	return rs, ss
}

// TestObsNilTracerJoinSlabs is the nil-tracer-overhead acceptance gate:
// the partition join with tracing disabled must add zero allocations
// over the bare slab join it wraps, and the instrumentation delta itself
// must be allocation-free.
func TestObsNilTracerJoinSlabs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race")
	}
	rs, ss := tracePartition(256)

	base := testing.AllocsPerRun(50, func() {
		bufs := colsweep.Get()
		colpipe.JoinSlabsContext(context.Background(), rs, ss, 0.5, nil, bufs.Sink(false, false))
		colsweep.Put(bufs)
	})
	traced := testing.AllocsPerRun(50, func() {
		JoinSlabsTraced(context.Background(), rs, ss, 0.5, nil, false, false, nil)
	})
	if extra := traced - base; extra != 0 {
		t.Fatalf("JoinSlabsTraced with nil span: %.1f extra allocs/run, want 0 (base %.1f, traced %.1f)", extra, base, traced)
	}

	// The instrumentation alone (what the traced path adds around the
	// join) must be exactly zero allocations when tracing is disabled.
	var tr *obs.Tracer
	instr := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(0, obs.SpanTask)
		sp.SetWorker("").SetInt("partition", 1)
		sp.SetInt("tuples_r", int64(rs.Rows()))
		sp.SetInt("tuples_s", int64(ss.Rows()))
		sp.SetInt("pairs", 0)
		sp.SetInt("cost", 0)
		sp.End()
	})
	if instr != 0 {
		t.Fatalf("nil-tracer instrumentation allocated %.1f times per run, want 0", instr)
	}
}

// TestObsLocalEngineTrace runs a full traced pipeline on the local
// engine and checks the span tree carries the phases and attributes
// the skew report needs.
func TestObsLocalEngineTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var r, s []tuple.Tuple
	for i := 0; i < 2000; i++ {
		r = append(r, tuple.Tuple{ID: int64(i), Pt: geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}})
		s = append(s, tuple.Tuple{ID: 1<<40 | int64(i), Pt: geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}})
	}
	assign := func(p geom.Point, _ tuple.Set, dst []int) []int {
		return append(dst[:0], int(p.X)+10*int(p.Y))
	}
	tr := obs.New()
	root := tr.Start(0, obs.SpanJoin)
	spec := Spec{
		R: r, S: s, Eps: 0.3,
		AssignR: assign, AssignS: assign,
		Cells:   100,
		Part:    HashPartitioner{N: 8},
		Workers: 4, Dedup: true,
		Tracer: tr, TraceParent: root.SpanID(),
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if res.Results == 0 {
		t.Fatal("traced join produced no results")
	}

	names := map[string]int{}
	for _, sp := range tr.Spans() {
		names[sp.Name]++
		if sp.Name == obs.SpanTask && sp.Worker == "" {
			t.Error("task span without worker attribution")
		}
	}
	for _, want := range []string{
		obs.SpanReplicate, obs.SpanShuffle, obs.SpanExecute,
		obs.SpanTask, obs.SpanSupplementary, obs.SpanDedup,
	} {
		if names[want] == 0 {
			t.Errorf("no %q span recorded (got %v)", want, names)
		}
	}

	sk := tr.Skew()
	if sk.Tasks == 0 || sk.MaxTaskMicros < sk.MedianTaskMicros {
		t.Fatalf("bad skew report: %+v", sk)
	}
	if sk.ShuffleBytes == 0 {
		t.Fatalf("skew report missing shuffle bytes: %+v", sk)
	}
	if len(sk.ReplicationBytes) == 0 && res.Replicated() > 0 {
		t.Fatalf("replication happened but skew report has no per-agreement bytes: %+v", sk)
	}

	roots := tr.Tree()
	if len(roots) != 1 || roots[0].Name != obs.SpanJoin {
		t.Fatalf("trace is not a single join-rooted tree: %d roots", len(roots))
	}
}
