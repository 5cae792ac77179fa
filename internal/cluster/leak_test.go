package cluster

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/dpe"
)

// clusterLoops are the long-lived goroutines of the coordinator and the
// worker. Coordinator.Close and RunWorker wait for them, so once both
// have returned none may be left but one on its way out of a deferred
// WaitGroup.Done — gone well within loopExit, far below the 500 ms
// heartbeat tick a loop that only polls for shutdown would wait for.
var clusterLoops = []string{
	"cluster.(*Coordinator).acceptLoop",
	"cluster.(*Coordinator).monitorLoop",
	"cluster.(*Coordinator).handshake",
	"cluster.(*Coordinator).readLoop",
	"cluster.RunWorker",
}

const loopExit = 100 * time.Millisecond

// TestClusterCloseLeavesNoGoroutines runs a completed join, a cancelled
// join and a join whose worker is killed mid-run, each on its own
// coordinator with in-process workers. Once the coordinator is closed
// and every RunWorker has returned, no coordinator or worker loop is
// left, and the goroutine count is back at its baseline.
func TestClusterCloseLeavesNoGoroutines(t *testing.T) {
	rs := datagen.Uniform(datagen.World(), 1500, 41, 0)
	ss := datagen.Uniform(datagen.World(), 1500, 42, 1<<20)
	victimLog, holding := taskStartLog()
	base := runtime.NumGoroutine()
	check := func(what string) {
		t.Helper()
		buf := make([]byte, 1<<20)
		lingering := func() string {
			for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
				for _, loop := range clusterLoops {
					if strings.Contains(g, loop) {
						return g
					}
				}
			}
			return ""
		}
		for deadline := time.Now().Add(loopExit); lingering() != "" && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if g := lingering(); g != "" {
			t.Fatalf("%s: a cluster loop still runs %v after Close and RunWorker returned\n%s", what, loopExit, g)
		}
		// Fire-and-forget frame sends and the finished subtest's own
		// goroutine exit on their own; give them a bounded time.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s: %d goroutines after Close, %d before\n%s", what, n, base, buf[:runtime.Stack(buf, true)])
		}
	}

	for _, c := range []struct {
		name    string
		workers []WorkerOptions
		run     func(t *testing.T, h *testHarness, spec dpe.Spec)
	}{
		{"completed run", []WorkerOptions{{Name: "w0"}, {Name: "w1"}}, func(t *testing.T, h *testHarness, spec dpe.Spec) {
			if _, err := dpe.Run(spec); err != nil {
				t.Fatal(err)
			}
		}},
		{"cancelled run", []WorkerOptions{{Name: "slow", TaskDelay: time.Second}}, func(t *testing.T, h *testHarness, spec dpe.Spec) {
			pr, err := dpe.Prepare(spec)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			if _, err := pr.ExecuteContext(ctx, dpe.ExecOptions{}); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("cancelled run: err = %v, want DeadlineExceeded", err)
			}
		}},
		{"worker killed mid-join", []WorkerOptions{
			{Name: "victim", TaskDelay: 400 * time.Millisecond, Parallel: 1, Log: victimLog}, {Name: "s1"}, {Name: "s2"},
		}, func(t *testing.T, h *testHarness, spec dpe.Spec) {
			// Kill the victim once it holds a task, which its stall keeps
			// outstanding.
			go func() {
				<-holding
				h.kill[0]()
			}()
			res, err := dpe.Run(spec)
			if err != nil {
				t.Fatalf("run after a worker kill: %v", err)
			}
			if res.Cluster.Retries == 0 {
				t.Fatal("no task was retried: the kill missed the run")
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := startHarness(t, Config{}, c.workers...)
			spec := uniRSpec(rs, ss, 0.5, false)
			spec.Engine = h.coord.Engine()
			c.run(t, h, spec)
		})
		check(c.name)
	}
}
