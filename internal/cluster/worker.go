package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"time"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/twolayer"
)

// WorkerOptions tunes one worker process.
type WorkerOptions struct {
	// Name identifies the worker in coordinator logs; default "worker".
	Name string
	// Parallel is the number of concurrent task executors; default
	// GOMAXPROCS.
	Parallel int
	// TaskDelay stalls every task before it runs — a fault-injection and
	// straggler-simulation aid for tests; default 0.
	TaskDelay time.Duration
	// Log receives structured progress events; nil discards them.
	Log *slog.Logger
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Name == "" {
		o.Name = "worker"
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if o.Log == nil {
		o.Log = slog.New(slog.DiscardHandler)
	}
	return o
}

// workerPlan is the worker-side state of one plan.
type workerPlan struct {
	eps        float64
	selfFilter bool
	collect    bool
	kernel     dpe.Kernel

	// Trace context from the plan frame. tr is nil when the
	// coordinator's join is untraced, so task spans cost nothing.
	tr     *obs.Tracer
	parent obs.SpanID

	// ctx ends with msgPlanDone (or the worker); each partition's tasks
	// run under a child of it that msgCancel ends, so a finished or lost
	// attempt stops within one slab group. parts is guarded by
	// workerState.mu.
	ctx    context.Context
	cancel context.CancelFunc
	parts  map[uint32]taskCtx
}

type taskCtx struct {
	ctx    context.Context
	cancel context.CancelFunc
}

// part returns the context of the plan's tasks for partition part,
// creating it on first use. Call with workerState.mu held.
func (p *workerPlan) part(part uint32) taskCtx {
	c, ok := p.parts[part]
	if !ok {
		c.ctx, c.cancel = context.WithCancel(p.ctx)
		p.parts[part] = c
	}
	return c
}

// workerTask is one queued task attempt: the decoded slabs of a reduce
// partition.
type workerTask struct {
	h      taskHeader
	rs, ss *colpipe.Slab
}

// workerState is everything the read loop and the executors share.
type workerState struct {
	opt   WorkerOptions
	*conn                 // frame writes: results, task errors, spans and heartbeats
	ctx   context.Context // parent of every plan's context

	mu    sync.Mutex
	plans map[uint64]*workerPlan
}

// RunWorker connects to the coordinator at addr and serves tasks until
// ctx is cancelled (returns nil) or the connection breaks (returns the
// read error). It returns only after every goroutine it started has
// exited. One process typically hosts exactly one RunWorker call.
func RunWorker(ctx context.Context, addr string, opt WorkerOptions) error {
	opt = opt.withDefaults()
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	defer nc.Close()

	w := &workerState{
		opt:   opt,
		conn:  newConn(nc),
		ctx:   ctx,
		plans: map[uint64]*workerPlan{},
	}
	if err := w.send(msgHello, helloMsg{name: opt.Name}.encode()); err != nil {
		return fmt.Errorf("cluster: hello: %w", err)
	}
	opt.Log.Info("worker connected", "worker", opt.Name, "coordinator", addr)

	// On return, cancelling ctx ends every plan's tasks and the
	// heartbeat, and the watcher closes the socket so no send blocks;
	// then wait for the executors, heartbeat and watcher.
	tasks := make(chan workerTask, 1024)
	var wg sync.WaitGroup
	defer func() {
		stop()
		close(tasks)
		wg.Wait()
	}()
	goWait := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}

	// The context watcher unblocks the read loop by closing the socket.
	goWait(func() {
		<-ctx.Done()
		nc.Close()
	})

	// Heartbeats ride their own ticker so long task queues never starve
	// liveness.
	goWait(func() {
		ticker := time.NewTicker(heartbeatPeriod)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if w.send(msgHeartbeat, nil) != nil {
					return
				}
			case <-ctx.Done():
				return
			}
		}
	})

	// Task executors drain a buffered queue so the read loop stays
	// responsive to cancels and new plans while joins run.
	for i := 0; i < opt.Parallel; i++ {
		goWait(func() {
			for t := range tasks {
				w.runTask(t)
			}
		})
	}

	// A task frame decodes straight from the reader into its slabs;
	// every other frame is small and read whole.
	br := bufio.NewReaderSize(nc, connBuffer)
	for {
		typ, n, payload, err := readFrame(br, maxFrame, msgTaskCols)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if errors.Is(err, io.EOF) {
				// The coordinator closed the connection: a finished sjoin
				// run or a stopping daemon. Normal end of service.
				opt.Log.Info("coordinator closed the connection, exiting", "worker", opt.Name)
				return nil
			}
			return fmt.Errorf("cluster: coordinator connection: %w", err)
		}
		switch typ {
		case msgPlan:
			if err := w.handlePlan(payload); err != nil {
				return err
			}
		case msgTaskCols:
			t, err := readTask(br, n)
			if err != nil {
				return err
			}
			select {
			case tasks <- t:
			default:
				// Queue full: the coordinator oversubscribed us wildly;
				// refuse rather than deadlock the read loop.
				w.sendTaskErr(t.h, "worker task queue overflow")
			}
		case msgCancel:
			m, err := decodeCancel(payload)
			if err != nil {
				return err
			}
			w.cancelTask(m.plan, m.part)
		case msgPlanDone:
			id, err := decodePlanDone(payload)
			if err != nil {
				return err
			}
			w.planDone(id)
		default:
			return fmt.Errorf("cluster: unexpected frame type %d from coordinator", typ)
		}
	}
}

// handlePlan installs a plan, rebuilding its kernel from the wire
// description and, for a traced join, a tracer that mints task spans
// from the coordinator-assigned id base, so the stitched trace stays
// collision-free across processes.
func (w *workerState) handlePlan(payload []byte) error {
	m, err := decodePlan(payload)
	if err != nil {
		return err
	}
	kernel, err := buildKernel(m.kernel)
	if err != nil {
		return fmt.Errorf("cluster: plan %d: %w", m.id, err)
	}
	p := &workerPlan{eps: m.eps, selfFilter: m.selfFilter, collect: m.collect, kernel: kernel, parts: map[uint32]taskCtx{}}
	if m.traceID != 0 {
		p.tr = obs.NewWithID(obs.TraceID(m.traceID), obs.SpanID(m.idBase))
		p.parent = obs.SpanID(m.parent)
	}
	p.ctx, p.cancel = context.WithCancel(w.ctx)
	w.mu.Lock()
	w.plans[m.id] = p
	w.mu.Unlock()
	w.opt.Log.Info("plan installed",
		"worker", w.opt.Name, "plan", m.id, "eps", m.eps, "trace", m.traceID)
	return nil
}

// buildKernel rebuilds a plan's join kernel from its wire description.
// It is a variable so the package's tests can hand workers a kernel that
// fails on purpose.
var buildKernel = func(desc dpe.KernelDesc) (dpe.Kernel, error) {
	switch desc.Kind {
	case dpe.KernelSweep:
		// nil kernel: JoinSlabsTraced runs the columnar zero-allocation
		// sweep in place, so remote workers execute the same fast path as
		// the local engine.
		return nil, nil
	case dpe.KernelRefPoint:
		return pbsm.RefPointKernel(grid.New(desc.Bounds, desc.GridEps, desc.GridRes)), nil
	case dpe.KernelTwoLayer:
		k, err := twolayer.KernelFromDesc(desc)
		if err != nil {
			return nil, err
		}
		return k.Join, nil
	}
	return nil, fmt.Errorf("unknown kernel kind %d", desc.Kind)
}

// cancelTask ends every attempt of one partition of a plan, queued or
// running: the coordinator took another attempt's result.
func (w *workerState) cancelTask(plan uint64, part uint32) {
	w.mu.Lock()
	if p := w.plans[plan]; p != nil {
		p.part(part).cancel()
	}
	w.mu.Unlock()
}

// planDone frees a plan and ends its tasks, queued or running: the
// coordinator's join finished, failed or was cancelled.
func (w *workerState) planDone(id uint64) {
	w.mu.Lock()
	if p := w.plans[id]; p != nil {
		p.cancel()
		delete(w.plans, id)
	}
	w.mu.Unlock()
}

// runTask joins one reduce partition and reports the outcome. Panics are
// converted into task errors so one poisoned partition cannot kill the
// worker.
func (w *workerState) runTask(t workerTask) {
	defer func() {
		if r := recover(); r != nil {
			w.sendTaskErr(t.h, fmt.Sprintf("panic: %v", r))
		}
	}()

	w.mu.Lock()
	plan := w.plans[t.h.plan]
	var ctx context.Context
	if plan != nil {
		ctx = plan.part(t.h.part).ctx
	}
	w.mu.Unlock()
	if plan == nil || ctx.Err() != nil {
		return // plan finished, or a speculation race this attempt lost
	}
	w.opt.Log.Debug("task started",
		"worker", w.opt.Name, "plan", t.h.plan, "partition", t.h.part, "attempt", t.h.attempt)
	if w.opt.TaskDelay > 0 {
		// A cancel may race the injected stall (a lost speculation): skip
		// the join rather than burn the executor.
		select {
		case <-time.After(w.opt.TaskDelay):
		case <-ctx.Done():
			return
		}
	}

	start := time.Now()
	sp := plan.tr.Start(plan.parent, obs.SpanTask)
	sp.SetWorker(w.opt.Name).
		SetInt("partition", int64(t.h.part)).
		SetInt("attempt", int64(t.h.attempt))
	out, err := dpe.JoinSlabsTraced(ctx, t.rs, t.ss, plan.eps, plan.kernel, plan.collect, plan.selfFilter, sp)
	if err != nil {
		return // cancelled mid-join: nobody waits for this result
	}
	if plan.tr != nil {
		// Ship the finished spans before the result on the same ordered
		// connection, so the coordinator stitches them while the run is
		// still live.
		if spans := plan.tr.TakeSpans(); len(spans) > 0 {
			w.send(msgSpans, spansMsg{plan: t.h.plan, spans: spans}.encode())
		}
	}
	m := resultMsg{
		taskHeader: t.h,
		dur:        time.Since(start),
		results:    out.Results,
		checksum:   out.Checksum,
		cost:       out.Cost,
		pairs:      out.Pairs,
	}
	w.stream(msgResult, m.size(), m.write)
}

func (w *workerState) sendTaskErr(h taskHeader, msg string) {
	w.send(msgTaskErr, taskErrMsg{taskHeader: h, msg: msg}.encode())
}
