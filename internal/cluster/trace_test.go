package cluster

import (
	"reflect"
	"testing"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/obs"
)

// TestTraceWireRoundTrip checks the trace context travels inside the
// plan frame — a traced plan installs a tracer minting span ids above
// the worker's base under the execute span, an untraced one none, and a
// frame cut inside the trace fields is refused — and that span frames
// encode/decode losslessly, including typed attributes.
func TestTraceWireRoundTrip(t *testing.T) {
	sweepKernel := dpe.KernelDesc{Kind: dpe.KernelSweep}
	traced := planMsg{id: 42, eps: 1, kernel: sweepKernel, traceID: 7, parent: 3, idBase: 5 << 40}.encode()
	w := discardWorker()
	if err := w.handlePlan(traced); err != nil {
		t.Fatal(err)
	}
	p := w.plans[42]
	if p.tr.TraceID() != 7 || p.parent != 3 {
		t.Fatalf("traced plan installed trace %d under span %d, want trace 7 under span 3", p.tr.TraceID(), p.parent)
	}
	if sp := p.tr.Start(p.parent, obs.SpanTask); sp.SpanID() != 5<<40+1 {
		t.Fatalf("first worker span id %d, want %d: ids must start above the plan's base", sp.SpanID(), 5<<40+1)
	}
	if err := w.handlePlan(planMsg{id: 43, eps: 1, kernel: sweepKernel}.encode()); err != nil {
		t.Fatal(err)
	}
	if tr := w.plans[43].tr; tr != nil {
		t.Fatalf("untraced plan installed tracer %d, want none", tr.TraceID())
	}
	if _, err := decodePlan(traced[:len(traced)-12]); err == nil {
		t.Fatal("plan frame cut inside its trace fields accepted")
	}

	sm := spansMsg{plan: 42, spans: []obs.Span{
		{ID: 5<<40 | 1, Parent: 3, Name: obs.SpanTask, Worker: "w1",
			Start: 1000, Done: 2000,
			Attrs: []obs.Attr{
				{Key: "partition", Int: 9},
				{Key: "kind", Str: "sweep", IsStr: true},
			}},
		{ID: 5<<40 | 2, Parent: 3, Name: obs.SpanTask, Worker: "w1", Start: 1500, Done: 1700},
	}}
	got2, err := decodeSpans(sm.encode())
	if err != nil {
		t.Fatalf("decodeSpans: %v", err)
	}
	if got2.plan != sm.plan || !reflect.DeepEqual(got2.spans, sm.spans) {
		t.Fatalf("spans round trip: got %+v, want %+v", got2, sm)
	}
}

// TestClusterTraceStitch runs a traced join on the cluster engine (two
// in-process workers speaking the full wire protocol) and checks the
// worker-side task spans stitch into the coordinator's single span tree
// with correct worker attribution and a usable skew report.
func TestClusterTraceStitch(t *testing.T) {
	h := startHarness(t, Config{},
		WorkerOptions{Name: "w1", Parallel: 2},
		WorkerOptions{Name: "w2", Parallel: 2},
	)

	rs := datagen.Uniform(datagen.World(), 3000, 21, 0)
	ss := datagen.GaussianClusters(datagen.World(), 3000, 8, 0.02, 0.08, 22, 1<<20)
	tr := obs.New()
	root := tr.Start(0, obs.SpanJoin)

	spec := uniRSpec(rs, ss, 0.4, false)
	spec.Engine = h.coord.Engine()
	spec.Tracer = tr
	spec.TraceParent = root.SpanID()
	res, err := dpe.Run(spec)
	if err != nil {
		t.Fatalf("traced cluster run: %v", err)
	}
	root.End()
	if res.Results == 0 {
		t.Fatal("traced cluster join produced no results")
	}

	workers := map[string]int{}
	seen := map[obs.SpanID]bool{}
	var tasks, execs int
	for _, sp := range tr.Spans() {
		if seen[sp.ID] {
			t.Errorf("duplicate span id %d in stitched trace", sp.ID)
		}
		seen[sp.ID] = true
		switch sp.Name {
		case obs.SpanTask:
			tasks++
			if sp.Worker == "" {
				t.Error("remote task span without worker attribution")
			}
			workers[sp.Worker]++
			if sp.Done == 0 {
				t.Errorf("task span %d never ended", sp.ID)
			}
		case obs.SpanExecute:
			execs++
		}
	}
	if execs != 1 {
		t.Fatalf("stitched trace has %d execute spans, want 1", execs)
	}
	if tasks == 0 {
		t.Fatal("no remote task spans were stitched in")
	}
	if workers["w1"] == 0 || workers["w2"] == 0 {
		t.Fatalf("task spans did not come from both worker processes: %v", workers)
	}

	roots := tr.Tree()
	if len(roots) != 1 || roots[0].Name != obs.SpanJoin {
		t.Fatalf("stitched trace is not a single join-rooted tree: %d roots", len(roots))
	}

	sk := tr.Skew()
	if sk.Tasks != tasks || sk.MaxTaskMicros <= 0 {
		t.Fatalf("skew report inconsistent with stitched tasks: %+v", sk)
	}
	if len(sk.TasksPerWorker) < 2 {
		t.Fatalf("skew report missing per-worker task counts: %+v", sk)
	}
}

// TestClusterUntracedFree checks a nil tracer adds no trace frames: the
// run completes and no spans exist anywhere.
func TestClusterUntracedFree(t *testing.T) {
	h := startHarness(t, Config{}, WorkerOptions{Name: "solo"})
	rs := datagen.Uniform(datagen.World(), 500, 31, 0)
	ss := datagen.Uniform(datagen.World(), 500, 32, 1<<20)
	spec := uniRSpec(rs, ss, 0.4, false)
	spec.Engine = h.coord.Engine()
	if _, err := dpe.Run(spec); err != nil {
		t.Fatalf("untraced cluster run: %v", err)
	}
}
