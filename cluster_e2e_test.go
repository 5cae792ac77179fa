package spatialjoin_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"sort"
	"sync"
	"testing"
	"time"

	"spatialjoin"
	"spatialjoin/internal/cluster"
	"spatialjoin/internal/experiments"
)

// e2eLogger routes coordinator slog output into the test log.
func e2eLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(e2eLogWriter{t}, nil))
}

type e2eLogWriter struct{ t *testing.T }

func (w e2eLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// startWorkerProc launches one sjoin-worker process against the
// coordinator and returns it; cleanup kills it if still running.
func startWorkerProc(t *testing.T, bin string, coord *cluster.Coordinator, args ...string) *exec.Cmd {
	t.Helper()
	return startWorkerProcLog(t, bin, coord, nil, args...)
}

// startWorkerProcLog is startWorkerProc with the worker's stderr, where
// it logs, copied to stderr (nil discards it).
func startWorkerProcLog(t *testing.T, bin string, coord *cluster.Coordinator, stderr io.Writer, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-connect", coord.Addr().String()}, args...)...)
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting worker: %v", err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
		cmd.Wait()
	})
	return cmd
}

// e2eLineWatch returns a writer that hands each complete line written
// to it to seen.
func e2eLineWatch(seen func(line []byte)) io.Writer {
	var mu sync.Mutex
	var buf []byte
	return e2eWriterFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		buf = append(buf, p...)
		for {
			i := bytes.IndexByte(buf, '\n')
			if i < 0 {
				return len(p), nil
			}
			seen(buf[:i])
			buf = buf[i+1:]
		}
	})
}

type e2eWriterFunc func(p []byte) (int, error)

func (f e2eWriterFunc) Write(p []byte) (int, error) { return f(p) }

func sortedPairs(ps []spatialjoin.Pair) []spatialjoin.Pair {
	out := append([]spatialjoin.Pair(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].RID != out[j].RID {
			return out[i].RID < out[j].RID
		}
		return out[i].SID < out[j].SID
	})
	return out
}

func assertSamePairs(t *testing.T, label string, got, want []spatialjoin.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d is %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestClusterTraceStitchE2E runs a traced join against two real worker
// processes and checks the acceptance criteria of the tracing PR: the
// coordinator holds one connected span tree whose task spans carry the
// names of both remote processes, the skew report is populated
// (including replication bytes by agreement), and the Chrome trace
// export is valid trace-event JSON. When CLUSTER_TRACE_OUT is set the
// exported trace is also written there (CI uploads it as an artifact).
func TestClusterTraceStitchE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and spawns worker processes")
	}
	bin := buildCmds(t)["sjoin-worker"]

	coord, err := cluster.Listen("127.0.0.1:0", cluster.Config{Log: e2eLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	startWorkerProc(t, bin, coord, "-name", "pw1")
	startWorkerProc(t, bin, coord, "-name", "pw2")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.WaitForWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}

	rs := spatialjoin.GenerateUniform(4000, 1)
	ss := spatialjoin.GenerateGaussian(4000, 2)
	tr := spatialjoin.NewTracer()
	opt := spatialjoin.Options{
		Eps:       experiments.DefaultEps,
		Algorithm: spatialjoin.AdaptiveSimpleDedup, // exercises supplementary join + dedup
		UseLPT:    true,
		Workers:   2,
		Engine:    coord.Engine(),
		Trace:     tr,
	}
	rep, err := spatialjoin.Join(rs, ss, opt)
	if err != nil {
		t.Fatalf("traced cluster join: %v", err)
	}
	if rep.Results == 0 {
		t.Fatal("traced cluster join produced no results")
	}

	// One connected tree rooted at the join span, with spans stitched in
	// from both remote worker processes.
	roots := tr.Tree()
	if len(roots) != 1 || roots[0].Name != "join" {
		t.Fatalf("stitched trace is not a single join-rooted tree: %d roots", len(roots))
	}
	workers := map[string]int{}
	for _, sp := range tr.Spans() {
		if sp.Name == "task" {
			if sp.Worker == "" {
				t.Error("task span without worker attribution")
			}
			workers[sp.Worker]++
		}
	}
	if workers["pw1"] == 0 || workers["pw2"] == 0 {
		t.Fatalf("task spans did not come from both worker processes: %v", workers)
	}

	sk := tr.Skew()
	if sk.Tasks == 0 || sk.MaxTaskMicros <= 0 || sk.MedianTaskMicros <= 0 {
		t.Fatalf("skew report empty: %+v", sk)
	}
	if len(sk.TasksPerWorker) != 2 {
		t.Fatalf("skew per-worker counts = %v, want both processes", sk.TasksPerWorker)
	}
	if len(sk.ReplicationBytes) == 0 {
		t.Fatalf("skew lacks replication bytes by agreement: %+v", sk)
	}

	// The Chrome export must be valid trace-event JSON: metadata and
	// complete events only, with both worker lanes named.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	lanes := map[string]bool{}
	var complete int
	for _, ev := range chrome.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				lanes[ev.Args["name"].(string)] = true
			}
		case "X":
			complete++
			if ev.Name == "" || ev.Ts < 0 || ev.Dur < 0 {
				t.Fatalf("malformed complete event: %+v", ev)
			}
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if complete == 0 || !lanes["pw1"] || !lanes["pw2"] {
		t.Fatalf("chrome export missing worker lanes or events: %d events, lanes %v", complete, lanes)
	}

	if out := os.Getenv("CLUSTER_TRACE_OUT"); out != "" {
		if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("writing CLUSTER_TRACE_OUT: %v", err)
		}
		t.Logf("wrote stitched trace to %s (%d events)", out, len(chrome.TraceEvents))
	}
}

// TestClusterFaultInjectionE2E runs the acceptance scenario of the
// cluster backend end to end with real worker processes: a 3-worker
// cluster join over the seed generators at the experiments' default ε
// must return the byte-identical sorted pair set as the in-process
// engine — and must still do so when one worker process is killed
// mid-join.
func TestClusterFaultInjectionE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and spawns worker processes")
	}
	bin := buildCmds(t)["sjoin-worker"]

	// Seed generators: one uniform input, one gaussian, at the scaled
	// paper default ε.
	eps := experiments.DefaultEps
	rs := spatialjoin.GenerateUniform(4000, 1)
	ss := spatialjoin.GenerateGaussian(4000, 2)
	opt := spatialjoin.Options{Eps: eps, Algorithm: spatialjoin.AdaptiveLPiB, UseLPT: true, Workers: 3, Collect: true}

	localRep, err := spatialjoin.Join(rs, ss, opt)
	if err != nil {
		t.Fatalf("local join: %v", err)
	}
	want := sortedPairs(localRep.Pairs)

	// The oracle: the cluster result must equal brute force too, not just
	// the local engine (they could share a bug).
	brute := sortedPairs(spatialjoin.BruteForce(rs, ss, eps))
	assertSamePairs(t, "local vs brute force", want, brute)

	t.Run("healthy", func(t *testing.T) {
		coord, err := cluster.Listen("127.0.0.1:0", cluster.Config{Log: e2eLogger(t)})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		for i := 0; i < 3; i++ {
			startWorkerProc(t, bin, coord, "-name", "w"+string(rune('0'+i)))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := coord.WaitForWorkers(ctx, 3); err != nil {
			t.Fatal(err)
		}

		o := opt
		o.Engine = coord.Engine()
		rep, err := spatialjoin.Join(rs, ss, o)
		if err != nil {
			t.Fatalf("cluster join: %v", err)
		}
		assertSamePairs(t, "cluster vs local", sortedPairs(rep.Pairs), want)
		if rep.Checksum != localRep.Checksum {
			t.Errorf("cluster checksum %#x, local %#x", rep.Checksum, localRep.Checksum)
		}
		if cm := rep.Cluster; cm.Workers != 3 || cm.TaskBytesRemote <= 0 || cm.BroadcastBytes <= 0 {
			t.Errorf("cluster metrics implausible: %+v", cm)
		}
		// The graph broadcast is modelled the same on every engine; the
		// cluster's own plan frames are counted in rep.Cluster.
		if rep.BroadcastBytes <= 0 || rep.BroadcastBytes != localRep.BroadcastBytes {
			t.Errorf("BroadcastBytes %d, local %d: want the same positive model", rep.BroadcastBytes, localRep.BroadcastBytes)
		}
	})

	t.Run("worker-killed-mid-join", func(t *testing.T) {
		coord, err := cluster.Listen("127.0.0.1:0", cluster.Config{Log: e2eLogger(t)})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()

		// The victim stalls each task and runs them one at a time, so a
		// kill once its log shows a task started lands while that
		// partition is outstanding.
		holding := make(chan struct{})
		var once sync.Once
		victimLog := e2eLineWatch(func(line []byte) {
			if bytes.Contains(line, []byte(`msg="task started"`)) {
				once.Do(func() { close(holding) })
			}
		})
		victim := startWorkerProcLog(t, bin, coord, victimLog,
			"-name", "victim", "-task-delay", "400ms", "-parallel", "1", "-log-level", "debug")
		startWorkerProc(t, bin, coord, "-name", "s1")
		startWorkerProc(t, bin, coord, "-name", "s2")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := coord.WaitForWorkers(ctx, 3); err != nil {
			t.Fatal(err)
		}

		o := opt
		o.Engine = coord.Engine()
		type outcome struct {
			rep *spatialjoin.Report
			err error
		}
		ch := make(chan outcome, 1)
		go func() {
			rep, err := spatialjoin.Join(rs, ss, o)
			ch <- outcome{rep, err}
		}()

		// Kill the victim process once it holds a task.
		select {
		case <-holding:
		case <-time.After(30 * time.Second):
			t.Fatal("the victim never logged a task start")
		}
		if err := victim.Process.Kill(); err != nil {
			t.Fatalf("killing victim: %v", err)
		}

		select {
		case out := <-ch:
			if out.err != nil {
				t.Fatalf("cluster join after worker kill: %v", out.err)
			}
			assertSamePairs(t, "cluster-after-kill vs local", sortedPairs(out.rep.Pairs), want)
			assertSamePairs(t, "cluster-after-kill vs brute force", sortedPairs(out.rep.Pairs), brute)
			if out.rep.Checksum != localRep.Checksum {
				t.Errorf("checksum after kill %#x, local %#x", out.rep.Checksum, localRep.Checksum)
			}
			if out.rep.Cluster.Retries == 0 {
				t.Errorf("victim was killed mid-join but no task was retried")
			}
		case <-time.After(60 * time.Second):
			t.Fatal("cluster join did not recover from the worker kill")
		}
		if n := coord.NumWorkers(); n != 2 {
			t.Errorf("coordinator has %d live workers after one of 3 was killed, want 2", n)
		}
	})
}
