package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestObsNilTracerFree(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(0, SpanTask)
		sp.SetInt("partition", 3)
		sp.SetStr("kind", "local")
		sp.SetWorker("w0")
		_ = sp.SpanID()
		sp.End()
		_ = tr.TraceID()
		tr.AddSpans(nil)
		_ = tr.Spans()
		_ = tr.Len()
	})
	if allocs != 0 {
		t.Fatalf("nil tracer path allocated %.1f times per run, want 0", allocs)
	}
}

func TestObsSpanTree(t *testing.T) {
	tr := New()
	root := tr.Start(0, SpanJoin)
	plan := tr.Start(root.SpanID(), SpanPlan)
	tr.Start(plan.SpanID(), SpanSample).End()
	plan.End()
	exec := tr.Start(root.SpanID(), SpanExecute)
	for i := 0; i < 3; i++ {
		tr.Start(exec.SpanID(), SpanTask).SetInt("partition", int64(i)).SetWorker("w0").End()
	}
	exec.End()
	root.End()

	roots := tr.Tree()
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	jn := roots[0]
	if jn.Name != SpanJoin || len(jn.Children) != 2 {
		t.Fatalf("root %q with %d children, want join with 2", jn.Name, len(jn.Children))
	}
	var tasks int
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Name == SpanTask {
			tasks++
			if n.Worker != "w0" {
				t.Errorf("task span worker = %q, want w0", n.Worker)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(jn)
	if tasks != 3 {
		t.Fatalf("found %d task spans, want 3", tasks)
	}
}

func TestObsTreeMalformedInput(t *testing.T) {
	tr := NewWithID(7, 0)
	// Duplicate span ids, a self-parent, and a two-node cycle: the tree
	// must stay finite and JSON-serialisable.
	tr.AddSpans([]Span{
		{ID: 1, Parent: 0, Name: "a"},
		{ID: 1, Parent: 0, Name: "a-dup"},
		{ID: 2, Parent: 2, Name: "self"},
		{ID: 3, Parent: 4, Name: "cyc1"},
		{ID: 4, Parent: 3, Name: "cyc2"},
	})
	roots := tr.Tree()
	if len(roots) == 0 {
		t.Fatal("no roots from malformed spans")
	}
	if _, err := json.Marshal(roots); err != nil {
		t.Fatalf("tree not serialisable: %v", err)
	}
	total := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		total++
		if total > 10 {
			t.Fatal("tree walk exploded: cycle reached the serialised tree")
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	if total != 4 {
		t.Fatalf("tree has %d nodes, want 4 (duplicate dropped)", total)
	}
}

func TestObsStitchRemoteSpans(t *testing.T) {
	// Coordinator-side tracer plus two simulated worker processes with
	// disjoint span-id bases, as the cluster protocol arranges.
	tr := New()
	root := tr.Start(0, SpanJoin)
	exec := tr.Start(root.SpanID(), SpanExecute)

	for w := 1; w <= 2; w++ {
		wt := NewWithID(tr.TraceID(), SpanID(uint64(w)<<40))
		sp := wt.Start(exec.SpanID(), SpanTask)
		sp.SetWorker([]string{"", "alpha", "beta"}[w]).SetInt("partition", int64(w))
		sp.End()
		tr.AddSpans(wt.Spans())
	}
	exec.End()
	root.End()

	roots := tr.Tree()
	if len(roots) != 1 {
		t.Fatalf("stitched trace has %d roots, want 1", len(roots))
	}
	workers := map[string]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Name == SpanTask {
			workers[n.Worker] = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(roots[0])
	if !workers["alpha"] || !workers["beta"] {
		t.Fatalf("stitched tree missing worker spans: %v", workers)
	}
}

// validateChromeTrace decodes Chrome trace-event JSON and checks the
// schema invariants Perfetto relies on. Shared with the cluster e2e
// trace test.
func validateChromeTrace(t *testing.T, data []byte) {
	t.Helper()
	var ct struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &ct); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	var complete int
	for i, ev := range ct.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		if ph == "" || name == "" {
			t.Fatalf("event %d missing ph/name: %v", i, ev)
		}
		switch ph {
		case "M":
			continue
		case "X":
			complete++
			ts, ok := ev["ts"].(float64)
			if !ok || ts < 0 {
				t.Fatalf("event %d has bad ts: %v", i, ev)
			}
			if _, ok := ev["pid"].(float64); !ok {
				t.Fatalf("event %d missing pid: %v", i, ev)
			}
			if _, ok := ev["tid"].(float64); !ok {
				t.Fatalf("event %d missing tid: %v", i, ev)
			}
		default:
			t.Fatalf("event %d has unexpected phase %q", i, ph)
		}
	}
	if complete == 0 {
		t.Fatal("chrome trace has no complete (X) events")
	}
}

func TestObsChromeTraceSchema(t *testing.T) {
	tr := New()
	root := tr.Start(0, SpanJoin)
	sp := tr.Start(root.SpanID(), SpanTask)
	sp.SetWorker("w1").SetInt("pairs", 42).SetStr("kind", "local")
	time.Sleep(time.Millisecond)
	sp.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	validateChromeTrace(t, buf.Bytes())

	// The worker lane must be announced via thread_name metadata.
	if !bytes.Contains(buf.Bytes(), []byte(`"w1"`)) {
		t.Fatal("worker name missing from chrome trace")
	}
}

func TestObsSkewReport(t *testing.T) {
	tr := New()
	rep := tr.Start(0, SpanReplicate)
	rep.SetInt("repl_bytes_r", 1000).SetInt("repl_bytes_s", 250)
	rep.End()
	sh := tr.Start(0, SpanShuffle)
	sh.SetInt("shuffled_bytes", 4096).SetInt("remote_bytes", 2048)
	sh.End()
	sup := tr.Start(0, SpanSupplementary)
	sup.SetInt("pairs_in", 500).SetInt("pairs_out", 480)
	sup.End()
	durs := []time.Duration{time.Millisecond, time.Millisecond, 4 * time.Millisecond}
	for i, d := range durs {
		sp := tr.Start(0, SpanTask)
		sp.SetWorker([]string{"a", "a", "b"}[i])
		time.Sleep(d)
		sp.End()
	}

	sk := tr.Skew()
	if sk.Tasks != 3 {
		t.Fatalf("Tasks = %d, want 3", sk.Tasks)
	}
	if sk.TasksPerWorker["a"] != 2 || sk.TasksPerWorker["b"] != 1 {
		t.Fatalf("TasksPerWorker = %v", sk.TasksPerWorker)
	}
	if sk.MaxTaskMicros < sk.MedianTaskMicros || sk.MedianTaskMicros <= 0 {
		t.Fatalf("task micros: max %d median %d", sk.MaxTaskMicros, sk.MedianTaskMicros)
	}
	if sk.StragglerRatio < 1 {
		t.Fatalf("StragglerRatio = %v, want >= 1", sk.StragglerRatio)
	}
	if sk.ReplicationBytes["R"] != 1000 || sk.ReplicationBytes["S"] != 250 {
		t.Fatalf("ReplicationBytes = %v", sk.ReplicationBytes)
	}
	if sk.ShuffleBytes != 4096 || sk.RemoteBytes != 2048 {
		t.Fatalf("shuffle %d remote %d", sk.ShuffleBytes, sk.RemoteBytes)
	}
	if sk.SupplementaryPairs != 500 {
		t.Fatalf("SupplementaryPairs = %d, want 500", sk.SupplementaryPairs)
	}
}

// TestObsSkewSubMicrosecondTasks pins the straggler signal on fast
// hosts: tasks that all finish below one microsecond round to 0 µs in
// the reported fields, but the ratio is taken from the nanosecond spans
// and stays ≥ 1 (and meaningful) instead of silently reading 0.
func TestObsSkewSubMicrosecondTasks(t *testing.T) {
	tr := New()
	for i, ns := range []int64{200, 300, 900} {
		tr.AddSpans([]Span{{ID: SpanID(i + 1), Name: SpanTask, Start: 1000, Done: 1000 + ns}})
	}
	sk := tr.Skew()
	if sk.Tasks != 3 || sk.MaxTaskMicros != 0 || sk.MedianTaskMicros != 0 {
		t.Fatalf("sub-µs tasks: %+v", sk)
	}
	if sk.StragglerRatio != 3 {
		t.Fatalf("StragglerRatio = %v, want 900ns/300ns = 3", sk.StragglerRatio)
	}

	// Zero-length spans (a clock too coarse to see the task) are perfectly
	// balanced, not undefined.
	tr = New()
	for i := 0; i < 4; i++ {
		tr.AddSpans([]Span{{ID: SpanID(i + 1), Name: SpanTask, Start: 1000, Done: 1000}})
	}
	if sk := tr.Skew(); sk.StragglerRatio != 1 {
		t.Fatalf("zero-length tasks: StragglerRatio = %v, want 1", sk.StragglerRatio)
	}
}

func TestObsSpanLimit(t *testing.T) {
	tr := New()
	tr.SetLimit(4)
	for i := 0; i < 10; i++ {
		tr.Start(0, SpanTask).End()
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	tr.AddSpans([]Span{{ID: 99}, {ID: 100}})
	if tr.Len() != 4 || tr.Dropped() != 8 {
		t.Fatalf("after AddSpans: Len %d Dropped %d", tr.Len(), tr.Dropped())
	}
}
