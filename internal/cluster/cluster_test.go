package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"log/slog"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialjoin/internal/codec"
	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/replicate"
	"spatialjoin/internal/tuple"
)

// testHarness is one coordinator plus in-process workers, each on its own
// cancellable context so tests can kill them individually.
type testHarness struct {
	t     *testing.T
	coord *Coordinator
	kill  []context.CancelFunc
	done  []chan error
}

// testLogWriter adapts t.Logf into an io.Writer for slog handlers.
type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// taskStartLog returns a worker logger and a channel closed once the
// worker logs that it started a task: the signal that it holds one.
func taskStartLog() (*slog.Logger, <-chan struct{}) {
	started := make(chan struct{})
	var once sync.Once
	w := writerFunc(func(p []byte) (int, error) {
		if bytes.Contains(p, []byte(`msg="task started"`)) {
			once.Do(func() { close(started) })
		}
		return len(p), nil
	})
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug})), started
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func startHarness(t *testing.T, cfg Config, workers ...WorkerOptions) *testHarness {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = testLogger(t)
	}
	coord, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	h := &testHarness{t: t, coord: coord}
	t.Cleanup(func() {
		coord.Close()
		for _, k := range h.kill {
			k()
		}
		for _, d := range h.done {
			<-d
		}
	})
	for _, w := range workers {
		h.addWorker(w)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.WaitForWorkers(ctx, len(workers)); err != nil {
		t.Fatalf("WaitForWorkers: %v", err)
	}
	return h
}

func (h *testHarness) addWorker(opt WorkerOptions) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	h.kill = append(h.kill, cancel)
	h.done = append(h.done, done)
	go func() {
		done <- RunWorker(ctx, h.coord.Addr().String(), opt)
	}()
}

// uniRSpec builds a UNI(R)-style spec (R replicated on a 2ε grid) over the
// seed generators' distributions.
func uniRSpec(rs, ss []tuple.Tuple, eps float64, collect bool) dpe.Spec {
	g := grid.New(datagen.World(), eps, 2)
	return dpe.Spec{
		R: rs, S: ss, Eps: eps,
		AssignR: func(row int, _ tuple.Set, dst []int) []int {
			return replicate.Universal(g, rs[row].Pt, true, dst)
		},
		AssignS: func(row int, _ tuple.Set, dst []int) []int {
			return replicate.Universal(g, ss[row].Pt, false, dst)
		},
		Cells:      g.NumCells(),
		Partitions: 24,
		Workers:    3,
		Collect:    collect,
	}
}

// cloneSpec builds a clone-join spec whose reference-point kernel must be
// rebuilt by workers from the wire description.
func cloneSpec(rs, ss []tuple.Tuple, eps float64) dpe.Spec {
	bounds := datagen.World()
	g := grid.New(bounds, eps, 2)
	both := func(in []tuple.Tuple) dpe.Assign {
		return func(row int, _ tuple.Set, dst []int) []int {
			return replicate.Universal(g, in[row].Pt, true, dst)
		}
	}
	return dpe.Spec{
		R: rs, S: ss, Eps: eps,
		AssignR: both(rs), AssignS: both(ss),
		Cells:      g.NumCells(),
		Partitions: 24,
		Workers:    3,
		Collect:    true,
		Kernel:     pbsm.RefPointKernel(g),
		KernelDesc: dpe.KernelDesc{Kind: dpe.KernelRefPoint, Bounds: bounds, GridEps: eps, GridRes: 2},
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

// runBoth executes the same spec on the local engine and on the cluster
// engine and asserts identical results.
func runBoth(t *testing.T, h *testHarness, spec dpe.Spec) (*dpe.Result, *dpe.Result) {
	t.Helper()
	local, err := dpe.Run(spec)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	spec.Engine = h.coord.Engine()
	clustered, err := dpe.Run(spec)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if clustered.Results != local.Results {
		t.Errorf("cluster found %d pairs, local %d", clustered.Results, local.Results)
	}
	if clustered.Checksum != local.Checksum {
		t.Errorf("cluster checksum %#x, local %#x", clustered.Checksum, local.Checksum)
	}
	if spec.Collect {
		sortPairs(local.Pairs)
		sortPairs(clustered.Pairs)
		if len(local.Pairs) != len(clustered.Pairs) {
			t.Fatalf("cluster collected %d pairs, local %d", len(clustered.Pairs), len(local.Pairs))
		}
		for i := range local.Pairs {
			if local.Pairs[i] != clustered.Pairs[i] {
				t.Fatalf("pair %d differs: cluster %v, local %v", i, clustered.Pairs[i], local.Pairs[i])
			}
		}
	}
	return local, clustered
}

func TestClusterMatchesLocal(t *testing.T) {
	world := datagen.World()
	rsUni := datagen.Uniform(world, 2000, 1, 0)
	ssUni := datagen.Uniform(world, 2000, 2, 1<<20)
	rsGau := datagen.GaussianClusters(world, 2000, 30, 0.1, 0.8, 3, 2<<20)
	ssGau := datagen.GaussianClusters(world, 2000, 30, 0.1, 0.8, 4, 3<<20)

	h := startHarness(t, Config{}, WorkerOptions{Name: "w0"}, WorkerOptions{Name: "w1"}, WorkerOptions{Name: "w2"})

	t.Run("uniform", func(t *testing.T) {
		local, clustered := runBoth(t, h, uniRSpec(rsUni, ssUni, 0.5, true))
		cm := clustered.Cluster
		if cm.Workers != 3 {
			t.Errorf("run used %d workers, want 3", cm.Workers)
		}
		if cm.TaskBytesLocal <= 0 || cm.TaskBytesRemote <= 0 {
			t.Errorf("measured shuffle bytes local=%d remote=%d, want both positive", cm.TaskBytesLocal, cm.TaskBytesRemote)
		}
		// The modelled graph broadcast is the orchestrator's on every
		// engine; the cluster measures one untraced plan frame per worker.
		if clustered.BroadcastBytes != local.BroadcastBytes {
			t.Errorf("BroadcastBytes=%d, local engine's %d: the model must not depend on the engine", clustered.BroadcastBytes, local.BroadcastBytes)
		}
		plan := appendFrame(msgPlan, planMsg{kernel: dpe.KernelDesc{Kind: dpe.KernelSweep}}.encode())
		if want := int64(cm.Workers * len(plan)); cm.BroadcastBytes != want {
			t.Errorf("Cluster.BroadcastBytes=%d, want %d: one %d-byte plan frame per worker", cm.BroadcastBytes, want, len(plan))
		}
		if cm.Tasks <= 0 || cm.ResultBytes <= 0 {
			t.Errorf("Tasks=%d ResultBytes=%d, want both positive", cm.Tasks, cm.ResultBytes)
		}
	})
	t.Run("gaussian", func(t *testing.T) {
		runBoth(t, h, uniRSpec(rsGau, ssGau, 0.5, true))
	})
	t.Run("count-only", func(t *testing.T) {
		_, clustered := runBoth(t, h, uniRSpec(rsUni, ssUni, 0.5, false))
		if clustered.Pairs != nil {
			t.Errorf("count-only run materialised %d pairs", len(clustered.Pairs))
		}
	})
	t.Run("clone-refpoint-kernel", func(t *testing.T) {
		runBoth(t, h, cloneSpec(rsGau, ssGau, 0.5))
	})
	t.Run("smaller-exec-eps", func(t *testing.T) {
		spec := uniRSpec(rsUni, ssUni, 0.5, true)
		localPr, err := dpe.Prepare(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.Engine = h.coord.Engine()
		clusterPr, err := dpe.Prepare(spec)
		if err != nil {
			t.Fatal(err)
		}
		local, err := localPr.Execute(dpe.ExecOptions{Eps: 0.25, Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		clustered, err := clusterPr.Execute(dpe.ExecOptions{Eps: 0.25, Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		if clustered.Results != local.Results || clustered.Checksum != local.Checksum {
			t.Errorf("eps=0.25 re-sweep: cluster (%d, %#x), local (%d, %#x)",
				clustered.Results, clustered.Checksum, local.Results, local.Checksum)
		}
	})
}

func TestClusterDedup(t *testing.T) {
	world := datagen.World()
	rs := datagen.Uniform(world, 1500, 5, 0)
	ss := datagen.Uniform(world, 1500, 6, 1<<20)
	h := startHarness(t, Config{}, WorkerOptions{Name: "w0"}, WorkerOptions{Name: "w1"})

	// Clone join WITHOUT the reference-point filter emits duplicates; the
	// engine-level distinct() pass must remove them identically on both
	// backends.
	spec := cloneSpec(rs, ss, 0.5)
	spec.Kernel, spec.KernelDesc = nil, dpe.KernelDesc{}
	spec.Dedup = true
	local, clustered := runBoth(t, h, spec)
	if local.DedupInput <= local.Results {
		t.Fatalf("dedup scenario produced no duplicates (in=%d out=%d) — test is vacuous", local.DedupInput, local.Results)
	}
	if clustered.DedupInput != local.DedupInput {
		t.Errorf("cluster dedup input %d, local %d", clustered.DedupInput, local.DedupInput)
	}
}

func TestClusterWorkerDeathMidJoin(t *testing.T) {
	world := datagen.World()
	rs := datagen.Uniform(world, 2000, 7, 0)
	ss := datagen.Uniform(world, 2000, 8, 1<<20)

	// The victim stalls every task, so once it has started one the kill
	// lands while that partition is still outstanding.
	victimLog, holding := taskStartLog()
	h := startHarness(t, Config{},
		WorkerOptions{Name: "victim", TaskDelay: 400 * time.Millisecond, Parallel: 1, Log: victimLog},
		WorkerOptions{Name: "s1"},
		WorkerOptions{Name: "s2"},
	)

	spec := uniRSpec(rs, ss, 0.5, true)
	local, err := dpe.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	spec.Engine = h.coord.Engine()
	resCh := make(chan *dpe.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := dpe.Run(spec)
		if err != nil {
			errCh <- err
			return
		}
		resCh <- res
	}()

	// Kill the victim once it holds a task (worker 0 gets the plan
	// first, so it owns partitions 0, 3, 6, ...).
	select {
	case <-holding:
	case <-time.After(30 * time.Second):
		t.Fatal("the victim never started a task")
	}
	h.kill[0]()

	select {
	case err := <-errCh:
		t.Fatalf("cluster run failed after worker death: %v", err)
	case res := <-resCh:
		if res.Results != local.Results || res.Checksum != local.Checksum {
			t.Errorf("after worker death: cluster (%d, %#x), local (%d, %#x)",
				res.Results, res.Checksum, local.Results, local.Checksum)
		}
		sortPairs(res.Pairs)
		sortPairs(local.Pairs)
		if len(res.Pairs) != len(local.Pairs) {
			t.Fatalf("after worker death: %d pairs, want %d", len(res.Pairs), len(local.Pairs))
		}
		for i := range local.Pairs {
			if res.Pairs[i] != local.Pairs[i] {
				t.Fatalf("pair %d differs after worker death", i)
			}
		}
		if res.Cluster.Retries == 0 {
			t.Errorf("worker died mid-join but no task was retried")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cluster run did not finish after worker death")
	}

	if n := h.coord.NumWorkers(); n != 2 {
		t.Errorf("%d live workers after killing one of 3, want 2", n)
	}
}

func TestClusterSpeculativeStraggler(t *testing.T) {
	world := datagen.World()
	rs := datagen.Uniform(world, 1500, 9, 0)
	ss := datagen.Uniform(world, 1500, 10, 1<<20)

	// One healthy worker, one straggler that stalls every task past the
	// 2s speculation floor: its partitions must be speculatively
	// duplicated on the healthy worker, whose copies win.
	h := startHarness(t,
		Config{},
		WorkerOptions{Name: "fast"},
		WorkerOptions{Name: "slow", TaskDelay: 5 * time.Second, Parallel: 1},
	)

	spec := uniRSpec(rs, ss, 0.5, true)
	local, err := dpe.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Engine = h.coord.Engine()
	start := time.Now()
	clustered, err := dpe.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Errorf("run took %v: speculation should beat the 5s straggler delay", elapsed)
	}
	if clustered.Results != local.Results || clustered.Checksum != local.Checksum {
		t.Errorf("speculative run: cluster (%d, %#x), local (%d, %#x)",
			clustered.Results, clustered.Checksum, local.Results, local.Checksum)
	}
	cm := clustered.Cluster
	if cm.SpeculativeLaunched == 0 {
		t.Errorf("no speculative attempt launched against a %v straggler", 5*time.Second)
	}
	if cm.SpeculativeWins == 0 {
		t.Errorf("speculative attempts launched (%d) but none won", cm.SpeculativeLaunched)
	}
}

func TestClusterErrors(t *testing.T) {
	rs := datagen.Uniform(datagen.World(), 100, 11, 0)
	ss := datagen.Uniform(datagen.World(), 100, 12, 1<<20)

	t.Run("no-workers", func(t *testing.T) {
		coord, err := Listen("127.0.0.1:0", Config{Log: testLogger(t)})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		spec := uniRSpec(rs, ss, 0.5, false)
		spec.Engine = coord.Engine()
		if _, err := dpe.Run(spec); !errors.Is(err, ErrNoWorkers) {
			t.Errorf("run with no workers: err = %v, want ErrNoWorkers", err)
		}
	})
	t.Run("custom-kernel", func(t *testing.T) {
		h := startHarness(t, Config{}, WorkerOptions{Name: "w0"})
		spec := uniRSpec(rs, ss, 0.5, false)
		spec.Kernel = pbsm.RefPointKernel(grid.New(datagen.World(), 0.5, 2)) // no KernelDesc: not portable
		spec.Engine = h.coord.Engine()
		if _, err := dpe.Run(spec); !errors.Is(err, ErrKernelNotPortable) {
			t.Errorf("run with undescribed kernel: err = %v, want ErrKernelNotPortable", err)
		}
	})
	t.Run("cancelled-context", func(t *testing.T) {
		h := startHarness(t, Config{}, WorkerOptions{Name: "w0", TaskDelay: time.Second})
		spec := uniRSpec(rs, ss, 0.5, false)
		spec.Engine = h.coord.Engine()
		pr, err := dpe.Prepare(spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		if _, err := pr.ExecuteContext(ctx, dpe.ExecOptions{}); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("cancelled run: err = %v, want DeadlineExceeded", err)
		}
	})
}

func TestClusterProtoRoundTrips(t *testing.T) {
	t.Run("hello", func(t *testing.T) {
		m, err := decodeHello(helloMsg{name: "w-1"}.encode())
		if err != nil || m.name != "w-1" {
			t.Fatalf("hello round trip: %+v, %v", m, err)
		}
		if _, err := decodeHello([]byte("XXXX\x01\x00\x00")); err == nil {
			t.Error("bad magic accepted")
		}
		v4 := codec.AppendStr16(append([]byte(helloMagic), 4), "w-1")
		if _, err := decodeHello(v4); err == nil || !strings.Contains(err.Error(), "protocol v4") {
			t.Errorf("protocol v4 hello: err = %v, want a version refusal", err)
		}
	})
	t.Run("plan", func(t *testing.T) {
		for _, in := range []planMsg{{
			id: 7, eps: 0.25, selfFilter: true, collect: true,
			kernel:  dpe.KernelDesc{Kind: dpe.KernelRefPoint, Bounds: geom.NewRect(0, 0, 10, 20), GridEps: 0.5, GridRes: 2},
			traceID: 99, parent: 3, idBase: 5 << 40,
		}, {
			id: 8, eps: 1, // untraced: the trace fields travel as zeros
			kernel: dpe.KernelDesc{Kind: dpe.KernelTwoLayer, Bounds: geom.NewRect(0, 0, 4, 4), RefineEps: 1, TileNX: 2, TileNY: 2, Predicate: 1},
		}} {
			out, err := decodePlan(in.encode())
			if err != nil {
				t.Fatal(err)
			}
			if out != in {
				t.Fatalf("plan round trip: got %+v, want %+v", out, in)
			}
		}
	})
	t.Run("taskPayload", func(t *testing.T) {
		// A payload-carrying slab: the column travels with its rows and
		// the byte split charges each producer its payload bytes plus the
		// per-row length prefix.
		rs := &colpipe.Slab{
			Ranks: []int32{5}, Starts: []int32{0, 2},
			Xs: []float64{1, 2}, Ys: []float64{3, 4}, IDs: []int64{1, 2},
			Payloads:   [][]byte{[]byte("geom"), nil},
			WorkerRows: []int32{1, 1}, WorkerPayload: []int64{4, 0},
		}
		ss := &colpipe.Slab{
			Ranks: []int32{5}, Starts: []int32{0, 1},
			Xs: []float64{3}, Ys: []float64{4}, IDs: []int64{9},
			WorkerRows: []int32{0, 1},
		}
		local, remote := splitTaskBytes(rs, ss, func(src int) bool { return src == 0 })
		if want := int64(colpipe.RowWire + 4 + 4); local != want {
			t.Fatalf("local bytes = %d, want %d", local, want)
		}
		if want := int64(colpipe.RowWire + 4 + colpipe.RowWire); remote != want {
			t.Fatalf("remote bytes = %d, want %d", remote, want)
		}
		frame := taskFrame(taskHeader{plan: 1, part: 2, attempt: 3}, rs, ss)
		task, err := readTaskFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		h, gotR, gotS := task.h, task.rs, task.ss
		if h != (taskHeader{plan: 1, part: 2, attempt: 3}) {
			t.Fatalf("header round trip: %+v", h)
		}
		if len(gotR.Payloads) != 2 || string(gotR.Payloads[0]) != "geom" || gotR.Payloads[1] != nil {
			t.Fatalf("payload column corrupted: %q", gotR.Payloads)
		}
		if gotS.Payloads != nil {
			t.Fatalf("point slab grew a payload lane: %q", gotS.Payloads)
		}
		// A payload length running past the frame must be rejected.
		bad := append([]byte(nil), frame...)
		lenAt := frameHeader + 16 + 4 + 4 + 8 + 2*colpipe.RowWire + 1 // R slab's first payload length
		bad[lenAt+3] = 0x7f
		if _, err := readTaskFrame(bad); err == nil {
			t.Error("lying payload length accepted")
		}
	})
	t.Run("taskCols", func(t *testing.T) {
		rs := &colpipe.Slab{
			Ranks:  []int32{1, 5},
			Starts: []int32{0, 2, 3},
			Xs:     []float64{1, 2, 3}, Ys: []float64{4, 5, 6}, IDs: []int64{7, 8, 9},
			WorkerRows: []int32{2, 1},
		}
		ss := &colpipe.Slab{
			Ranks:  []int32{5},
			Starts: []int32{0, 1},
			Xs:     []float64{2.5}, Ys: []float64{5.5}, IDs: []int64{11},
			WorkerRows: []int32{0, 1},
		}
		local, remote := splitTaskBytes(rs, ss, func(src int) bool { return src == 0 })
		if local != 2*colpipe.RowWire || remote != 2*colpipe.RowWire {
			t.Fatalf("byte classification: local=%d remote=%d, want %d each", local, remote, 2*colpipe.RowWire)
		}
		frame := taskFrame(taskHeader{plan: 4, part: 2, attempt: 1}, rs, ss)
		task, err := readTaskFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		h, gotR, gotS := task.h, task.rs, task.ss
		if h != (taskHeader{plan: 4, part: 2, attempt: 1}) {
			t.Fatalf("header round trip: %+v", h)
		}
		if !slices.Equal(gotR.Ranks, rs.Ranks) || !slices.Equal(gotR.Starts, rs.Starts) ||
			!slices.Equal(gotR.Xs, rs.Xs) || !slices.Equal(gotR.Ys, rs.Ys) || !slices.Equal(gotR.IDs, rs.IDs) {
			t.Fatalf("R slab corrupted: %+v", gotR)
		}
		if !slices.Equal(gotS.Ranks, ss.Ranks) || gotS.Rows() != 1 || gotS.IDs[0] != 11 {
			t.Fatalf("S slab corrupted: %+v", gotS)
		}
		// Lying group offsets must be rejected, not scanned past.
		bad := append([]byte(nil), frame...)
		bad[frameHeader+16+4+8] = 0xff // first Starts entry of the R slab
		if _, err := readTaskFrame(bad); err == nil {
			t.Error("corrupt offsets accepted")
		}
	})
	t.Run("result", func(t *testing.T) {
		in := resultMsg{
			taskHeader: taskHeader{plan: 9, part: 1, attempt: 0},
			dur:        time.Second, results: 2, checksum: 0xbeef, cost: 42,
			pairs: []tuple.Pair{{RID: 1, SID: 2}, {RID: 3, SID: 4}},
		}
		frame := resultFrame(in)
		if want := appendFrame(msgResult, refResult(in)); !bytes.Equal(frame, want) {
			t.Fatalf("streamed result frame\n%x\ndiffers from the v5 layout\n%x", frame, want)
		}
		br := bufio.NewReaderSize(bytes.NewReader(frame), 16)
		_, n, _, err := readFrame(br, maxFrame, msgResult)
		if err != nil {
			t.Fatal(err)
		}
		out, err := readResult(br, n)
		if err != nil {
			t.Fatal(err)
		}
		if out.taskHeader != in.taskHeader || out.dur != in.dur || out.results != in.results ||
			out.checksum != in.checksum || out.cost != in.cost || len(out.pairs) != 2 || out.pairs[1] != in.pairs[1] {
			t.Fatalf("result round trip: got %+v, want %+v", out, in)
		}
	})
}

// discardWorker is a worker's plan state with no connection and a
// discard logger: enough to install plans.
func discardWorker() *workerState {
	return &workerState{
		opt:   WorkerOptions{}.withDefaults(),
		ctx:   context.Background(),
		plans: map[uint64]*workerPlan{},
	}
}

// TestDecodePlanRejectsLyingKernel feeds plans whose kernel geometry
// grid.New would panic on, or whose grid would size dense tables past
// grid.MaxCells: decodePlan must refuse each, and handlePlan must return
// the error instead of taking the worker process down.
func TestDecodePlanRejectsLyingKernel(t *testing.T) {
	world := geom.NewRect(0, 0, 4, 4)
	ref := func(b geom.Rect, eps, res float64) dpe.KernelDesc {
		return dpe.KernelDesc{Kind: dpe.KernelRefPoint, Bounds: b, GridEps: eps, GridRes: res}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, k := range map[string]dpe.KernelDesc{
		"zero eps":          ref(world, 0, 2),
		"negative eps":      ref(world, -0.5, 2),
		"NaN eps":           ref(world, nan, 2),
		"infinite eps":      ref(world, inf, 2),
		"zero resolution":   ref(world, 0.5, 0),
		"NaN resolution":    ref(world, 0.5, nan),
		"empty bounds":      ref(geom.EmptyRect(), 0.5, 2),
		"inverted bounds":   ref(geom.Rect{MinX: 4, MinY: 0, MaxX: 0, MaxY: 4}, 0.5, 2),
		"NaN bounds":        ref(geom.Rect{MinX: nan, MinY: 0, MaxX: 4, MaxY: 4}, 0.5, 2),
		"too many cells":    ref(geom.NewRect(0, 0, 1e6, 1e6), 1e-3, 2),
		"underflowing tile": ref(world, 1e-300, 1e-300),
		"too many tiles": {Kind: dpe.KernelTwoLayer, Bounds: world,
			TileNX: 1 << 16, TileNY: 1 << 16, Predicate: 1},
	} {
		payload := planMsg{id: 3, eps: 0.5, kernel: k}.encode()
		if _, err := decodePlan(payload); err == nil {
			t.Errorf("%s: decodePlan accepted %+v", name, k)
		}
		w := discardWorker()
		if err := w.handlePlan(payload); err == nil || len(w.plans) != 0 {
			t.Errorf("%s: handlePlan installed the plan (err %v)", name, err)
		}
	}
	w := discardWorker()
	if err := w.handlePlan(planMsg{id: 4, eps: 0.5, kernel: ref(world, 0.5, 2)}.encode()); err != nil || w.plans[4] == nil {
		t.Fatalf("valid ref-point plan refused: %v", err)
	}
}
