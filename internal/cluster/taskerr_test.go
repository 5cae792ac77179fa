package cluster

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/sweep"
)

// failingKernels wraps every worker plan's kernel so that its n-th call
// (counted across workers in calls) panics when fail(n) holds, and
// restores buildKernel when the test ends. Call it before startHarness,
// so the workers are gone before buildKernel is restored.
func failingKernels(t *testing.T, fail func(call int64) bool) (calls *atomic.Int64) {
	calls = new(atomic.Int64)
	real := buildKernel
	t.Cleanup(func() { buildKernel = real })
	buildKernel = func(desc dpe.KernelDesc) (dpe.Kernel, error) {
		k, err := real(desc)
		if err != nil {
			return nil, err
		}
		return func(cell int, r, s *colpipe.Group, eps float64, out *colsweep.Sink) {
			if fail(calls.Add(1)) {
				panic("injected kernel failure")
			}
			k(cell, r, s, eps, out)
		}, nil
	}
	return calls
}

// TestClusterTaskErrRequeues: a kernel that panics on its first call
// turns that task attempt into a msgTaskErr, the coordinator re-queues
// it, and the join still returns the nested loop's answer.
func TestClusterTaskErrRequeues(t *testing.T) {
	calls := failingKernels(t, func(call int64) bool { return call == 1 })
	h := startHarness(t, Config{}, WorkerOptions{Name: "w0", Parallel: 2}, WorkerOptions{Name: "w1", Parallel: 2})
	rs := datagen.Uniform(datagen.World(), 1500, 21, 0)
	ss := datagen.Uniform(datagen.World(), 1500, 22, 1<<20)
	const eps = 2.0
	spec := cloneSpec(rs, ss, eps)
	spec.Engine = h.coord.Engine()
	got, err := dpe.Run(spec)
	if err != nil {
		t.Fatalf("join with one failed attempt: %v", err)
	}
	var want sweep.Counter
	sweep.NestedLoop(rs, ss, eps, want.Emit)
	if got.Results != want.N || got.Checksum != want.Checksum {
		t.Fatalf("join %d/%x, nested loop %d/%x", got.Results, got.Checksum, want.N, want.Checksum)
	}
	if want.N == 0 {
		t.Fatal("the workload has no pairs")
	}
	if calls.Load() < 2 || got.Cluster.Retries < 1 || h.coord.NumWorkers() != 2 {
		t.Fatalf("%d kernel calls, %d retries, %d of 2 workers live: want the failed attempt re-queued on a live worker",
			calls.Load(), got.Cluster.Retries, h.coord.NumWorkers())
	}
}

// TestClusterTaskErrGivesUp: a kernel that always panics fails the join
// with an error once a task has used up its bounded retries — the join
// returns rather than hangs.
func TestClusterTaskErrGivesUp(t *testing.T) {
	calls := failingKernels(t, func(int64) bool { return true })
	h := startHarness(t, Config{}, WorkerOptions{Name: "w0"}, WorkerOptions{Name: "w1"})
	rs := datagen.Uniform(datagen.World(), 300, 23, 0)
	ss := datagen.Uniform(datagen.World(), 300, 24, 1<<20)
	spec := cloneSpec(rs, ss, 2)
	spec.Engine = h.coord.Engine()
	pr, err := dpe.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The deadline only keeps a regression from hanging the suite.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err = pr.ExecuteContext(ctx, dpe.ExecOptions{})
	if err == nil || ctx.Err() != nil || !strings.Contains(err.Error(), "injected kernel failure") {
		t.Fatalf("join with an always-failing kernel: err = %v, want the task error", err)
	}
	if n := calls.Load(); n < maxTaskRetries+1 {
		t.Fatalf("%d kernel calls, want at least %d (one task's attempts)", n, maxTaskRetries+1)
	}
}
