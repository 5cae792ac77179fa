package cluster

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/tuple"
)

// ErrNoWorkers is returned when an execution needs a worker and none is
// live (or none survives to the end of the run).
var ErrNoWorkers = errors.New("cluster: no live workers")

// ErrKernelNotPortable is returned for plans whose join kernel has no
// wire description (e.g. the Sedona R-tree kernel): they run on the
// local engine only.
var ErrKernelNotPortable = errors.New("cluster: plan kernel cannot run on remote workers")

// maxTaskRetries bounds re-executions of one task before the run is
// declared failed.
const maxTaskRetries = 8

// Config tunes the coordinator. Zero values select defaults. Liveness
// timing and the frame cap are protocol constants (see proto.go), not
// settings, so coordinator and workers cannot disagree on them; the
// speculation timing beside them has no caller that sets another value.
type Config struct {
	// Log receives structured progress and fault events; nil discards
	// them.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Log == nil {
		c.Log = slog.New(slog.DiscardHandler)
	}
	return c
}

// Coordinator accepts worker connections and executes prepared joins on
// them. It implements the engine side of the protocol; its Engine method
// adapts it to dpe.Engine so orchestrators can treat it as a drop-in
// backend. Each execution reports its own counters in
// dpe.Result.Cluster; the coordinator keeps none across runs.
type Coordinator struct {
	cfg Config
	ln  net.Listener

	mu       sync.Mutex
	conns    map[net.Conn]struct{} // accepted connections, workers or mid-handshake
	workers  map[int64]*remote
	runs     map[uint64]*run
	nextWID  int64
	memberCh chan struct{} // closed and replaced on every membership change
	closed   bool

	quit chan struct{}  // closed by Close: stops monitorLoop
	wg   sync.WaitGroup // acceptLoop, monitorLoop and one per connection

	nextPlan atomic.Uint64
}

// remote is the coordinator's handle on one connected worker.
type remote struct {
	id   int64
	name string
	*conn

	lastSeen atomic.Int64
	dead     atomic.Bool
}

// Listen starts a coordinator on addr (e.g. ":7077", or ":0" to pick a
// free port, discoverable via Addr).
func Listen(addr string, cfg Config) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c := &Coordinator{
		cfg:      cfg.withDefaults(),
		ln:       ln,
		conns:    map[net.Conn]struct{}{},
		workers:  map[int64]*remote{},
		runs:     map[uint64]*run{},
		memberCh: make(chan struct{}),
		quit:     make(chan struct{}),
	}
	c.wg.Add(2)
	go c.acceptLoop()
	go c.monitorLoop()
	return c, nil
}

// Addr returns the coordinator's listen address.
func (c *Coordinator) Addr() net.Addr { return c.ln.Addr() }

// Close stops accepting workers, disconnects every connection and
// returns once the coordinator's own goroutines have exited. In-flight
// runs fail with ErrNoWorkers.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	close(c.quit)
	err := c.ln.Close()
	// A closed connection fails its reader, which drops the worker and
	// re-queues (here: fails) its runs' tasks.
	for _, conn := range conns {
		conn.Close()
	}
	c.wg.Wait()
	return err
}

// NumWorkers returns the number of live workers.
func (c *Coordinator) NumWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// WaitForWorkers blocks until at least n workers are connected or ctx
// expires.
func (c *Coordinator) WaitForWorkers(ctx context.Context, n int) error {
	for {
		c.mu.Lock()
		have, ch, closed := len(c.workers), c.memberCh, c.closed
		c.mu.Unlock()
		if have >= n {
			return nil
		}
		if closed {
			return errors.New("cluster: coordinator closed")
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return fmt.Errorf("cluster: waiting for %d workers (have %d): %w", n, have, ctx.Err())
		}
	}
}

// Engine adapts the coordinator to the data-parallel engine's pluggable
// backend interface.
func (c *Coordinator) Engine() dpe.Engine { return engine{c} }

// acceptLoop admits workers: each connection must open with a hello
// frame before it joins the pool.
func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conns[conn] = struct{}{}
		c.wg.Add(1)
		c.mu.Unlock()
		go func() {
			defer c.wg.Done()
			c.handshake(conn)
			c.mu.Lock()
			delete(c.conns, conn)
			c.mu.Unlock()
		}()
	}
}

func (c *Coordinator) handshake(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReaderSize(conn, connBuffer)
	typ, _, payload, err := readFrame(br, 1<<16, 0)
	if err != nil || typ != msgHello {
		conn.Close()
		return
	}
	hello, err := decodeHello(payload)
	if err != nil {
		c.cfg.Log.Warn("rejecting worker", "err", err)
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})

	w := &remote{name: hello.name, conn: newConn(conn)}
	w.lastSeen.Store(time.Now().UnixNano())
	c.mu.Lock()
	c.nextWID++
	w.id = c.nextWID
	c.workers[w.id] = w
	close(c.memberCh)
	c.memberCh = make(chan struct{})
	c.mu.Unlock()
	c.cfg.Log.Info("worker joined",
		"worker", w.id, "name", w.name, "addr", conn.RemoteAddr().String())

	c.readLoop(w, br)
}

// readLoop consumes a worker's frames until the connection breaks. A
// result frame decodes straight from the reader, its pairs into their
// own slice; every other frame is small and read whole.
func (c *Coordinator) readLoop(w *remote, br *bufio.Reader) {
	for {
		typ, n, payload, err := readFrame(br, maxFrame, msgResult)
		if err != nil {
			c.dropWorker(w, err)
			return
		}
		w.lastSeen.Store(time.Now().UnixNano())
		switch typ {
		case msgHeartbeat:
			// lastSeen update above is the whole point.
		case msgResult:
			m, err := readResult(br, n)
			if err != nil {
				c.dropWorker(w, err)
				return
			}
			c.handleResult(w, m, frameHeader+n)
		case msgTaskErr:
			c.handleTaskErr(w, payload)
		case msgSpans:
			c.handleSpans(w, payload)
		default:
			c.dropWorker(w, fmt.Errorf("unexpected frame type %d", typ))
			return
		}
	}
}

// monitorLoop declares workers dead when their heartbeats stop.
func (c *Coordinator) monitorLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(heartbeatPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-ticker.C:
		}
		c.mu.Lock()
		var stale []*remote
		now := time.Now().UnixNano()
		for _, w := range c.workers {
			if now-w.lastSeen.Load() > int64(heartbeatMisses*heartbeatPeriod) {
				stale = append(stale, w)
			}
		}
		c.mu.Unlock()
		for _, w := range stale {
			c.dropWorker(w, fmt.Errorf("missed %d heartbeats", heartbeatMisses))
		}
	}
}

// dropWorker removes a worker from the pool and re-queues its unfinished
// task attempts on survivors. Idempotent; never called with locks held.
func (c *Coordinator) dropWorker(w *remote, cause error) {
	if !w.dead.CompareAndSwap(false, true) {
		return
	}
	w.conn.Close()
	c.mu.Lock()
	delete(c.workers, w.id)
	close(c.memberCh)
	c.memberCh = make(chan struct{})
	runs := make([]*run, 0, len(c.runs))
	for _, r := range c.runs {
		runs = append(runs, r)
	}
	closed := c.closed
	c.mu.Unlock()
	if !closed {
		c.cfg.Log.Warn("worker lost", "worker", w.id, "name", w.name, "cause", cause)
	}
	for _, r := range runs {
		c.requeueWorker(r, w.id)
	}
}

// liveWorkers returns the live workers ordered by id.
func (c *Coordinator) liveWorkers() []*remote {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*remote, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, w)
	}
	slices.SortFunc(out, func(a, b *remote) int { return cmp.Compare(a.id, b.id) })
	return out
}

// run is the coordinator-side state of one engine execution.
type run struct {
	id      uint64
	collect bool
	workers []*remote // plan recipients, in dispatch order (stable for src mapping)
	tr      *obs.Tracer
	traceID uint64 // for log fields; 0 when untraced

	mu      sync.Mutex
	tasks   map[uint32]*task
	pending int
	rr      int // round-robin cursor for re-assignments
	durs    []time.Duration
	failed  error
	done    chan struct{}

	results            int64
	checksum           uint64
	totalCost, maxCost int64
	pairs              []tuple.Pair
	busy               map[int64]time.Duration
	cm                 dpe.ClusterMetrics
}

// task is one reduce partition of a run: its two kernel-ready slabs.
type task struct {
	part        uint32
	rs, ss      *colpipe.Slab
	active      []attempt
	nextAttempt uint32
	retries     int
	completed   bool
}

type attempt struct {
	id          uint32
	worker      int64
	start       time.Time
	speculative bool
}

// engine adapts the coordinator to dpe.Engine.
type engine struct{ c *Coordinator }

// ExecutePrepared implements dpe.Engine: send each worker the plan,
// stream the partitions to their owners, collect results with retry and
// speculation, and assemble the metrics.
func (e engine) ExecutePrepared(ctx context.Context, pr *dpe.Prepared, opt dpe.ExecOptions) (*dpe.Result, error) {
	c := e.c
	kd := pr.WireKernel()
	if kd.Kind == dpe.KernelCustom {
		return nil, ErrKernelNotPortable
	}

	r := &run{
		id:      c.nextPlan.Add(1),
		collect: opt.Collect,
		tasks:   map[uint32]*task{},
		done:    make(chan struct{}),
		busy:    map[int64]time.Duration{},
		tr:      opt.Tracer,
		traceID: uint64(opt.Tracer.TraceID()),
	}
	execSp := r.tr.Start(opt.TraceParent, obs.SpanExecute)
	execSp.SetStr("engine", "cluster")
	defer execSp.End()

	// ---- One plan frame per worker before any tuple. The coordinator
	// mapped and replicated already, so the frame carries only what the
	// worker's kernel needs, plus the trace context: a traced join gives
	// each worker its own span-id base so remote spans stitch without
	// collisions.
	plan := planMsg{
		id:         r.id,
		eps:        opt.Eps,
		selfFilter: pr.SelfFilter(),
		collect:    opt.Collect,
		kernel:     kd,
	}
	if r.tr != nil {
		plan.traceID, plan.parent = r.traceID, uint64(execSp.SpanID())
	}
	for _, w := range c.liveWorkers() {
		if r.tr != nil {
			plan.idBase = uint64(w.id) << 40
		}
		payload := plan.encode()
		if err := w.send(msgPlan, payload); err != nil {
			c.dropWorker(w, err)
			continue
		}
		r.workers = append(r.workers, w)
		r.cm.BroadcastBytes += int64(frameHeader + len(payload))
	}
	if len(r.workers) == 0 {
		return nil, ErrNoWorkers
	}
	r.cm.Workers = len(r.workers)
	execSp.SetInt("workers", int64(len(r.workers)))

	c.mu.Lock()
	c.runs[r.id] = r
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.runs, r.id)
		c.mu.Unlock()
	}()

	// ---- Task construction: one task per reduce partition that holds
	// records of both inputs (one-sided partitions cannot produce pairs,
	// matching the local engine's cell-level short circuit).
	start := time.Now()
	var tasks []*task
	for p := 0; p < pr.NumPartitions(); p++ {
		rs, ss := pr.Slabs(p)
		if rs.Rows() == 0 || ss.Rows() == 0 {
			continue
		}
		t := &task{part: uint32(p), rs: rs, ss: ss}
		r.tasks[t.part] = t
		tasks = append(tasks, t)
	}
	r.mu.Lock()
	r.pending = len(tasks)
	r.mu.Unlock()
	execSp.SetInt("partitions", int64(len(tasks)))

	if len(tasks) > 0 {
		// ---- The shuffle: partition i is owned by worker i mod W, the
		// same round-robin ownership the local engine and the LPT
		// placement assume.
		for i, t := range tasks {
			c.dispatch(r, t, r.workers[i%len(r.workers)], false)
		}

		stop := make(chan struct{})
		go c.speculateLoop(r, stop)
		select {
		case <-ctx.Done():
			close(stop)
			r.fail(ctx.Err())
			c.broadcastPlanDone(r)
			return nil, ctx.Err()
		case <-r.done:
			close(stop)
		}
		c.broadcastPlanDone(r)
		r.mu.Lock()
		err := r.failed
		r.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}

	// ---- Assemble the result on top of the construction metrics.
	res := &dpe.Result{Metrics: pr.BuildMetrics()}
	res.JoinTime = time.Since(start)
	r.mu.Lock()
	res.Results = r.results
	res.Checksum = r.checksum
	res.TotalPartitionCost = r.totalCost
	res.MaxPartitionCost = r.maxCost
	if r.collect {
		res.Pairs = r.pairs
	}
	res.WorkerBusy = make([]time.Duration, 0, len(r.workers))
	for _, w := range r.workers {
		res.WorkerBusy = append(res.WorkerBusy, r.busy[w.id])
	}
	res.Cluster = r.cm
	r.mu.Unlock()
	return res, nil
}

// requeueWorker strips a dead worker's attempts from a run and re-queues
// tasks left with no active attempt.
func (c *Coordinator) requeueWorker(r *run, workerID int64) {
	type resend struct {
		t *task
		w *remote
	}
	var resends []resend
	r.mu.Lock()
	if r.failed != nil {
		r.mu.Unlock()
		return
	}
	for _, t := range r.tasks {
		if t.completed {
			continue
		}
		kept := t.active[:0]
		stripped := false
		for _, a := range t.active {
			if a.worker == workerID {
				stripped = true
				continue
			}
			kept = append(kept, a)
		}
		t.active = kept
		if !stripped || len(t.active) > 0 {
			continue
		}
		// The task's only attempt died: re-execute on a survivor.
		w := r.pickLocked(workerID)
		if w == nil {
			err := fmt.Errorf("%w: partition %d lost its last worker", ErrNoWorkers, t.part)
			r.failLocked(err)
			r.mu.Unlock()
			c.broadcastPlanDone(r)
			return
		}
		t.retries++
		r.cm.Retries++
		if t.retries > maxTaskRetries {
			r.failLocked(fmt.Errorf("cluster: partition %d failed %d times", t.part, t.retries))
			r.mu.Unlock()
			c.broadcastPlanDone(r)
			return
		}
		resends = append(resends, resend{t: t, w: w})
	}
	r.mu.Unlock()
	for _, rs := range resends {
		c.cfg.Log.Info("re-queueing partition",
			"plan", r.id, "trace", r.traceID, "partition", rs.t.part, "worker", rs.w.id)
		c.dispatch(r, rs.t, rs.w, false)
	}
}

// dispatch registers an attempt of t on w and streams the task frame —
// used for first executions, retries and speculation alike, so retry
// bytes are measured too. Must be called without r.mu or c.mu held.
func (c *Coordinator) dispatch(r *run, t *task, w *remote, speculative bool) {
	r.mu.Lock()
	if t.completed || r.failed != nil {
		r.mu.Unlock()
		return
	}
	att := attempt{id: t.nextAttempt, worker: w.id, start: time.Now(), speculative: speculative}
	t.nextAttempt++
	t.active = append(t.active, att)
	rs, ss := t.rs, t.ss
	local, remote := splitTaskBytes(rs, ss, func(src int) bool { return r.workers[src%len(r.workers)] == w })
	r.cm.TaskBytesLocal += local
	r.cm.TaskBytesRemote += remote
	r.mu.Unlock()

	h := taskHeader{plan: r.id, part: t.part, attempt: att.id}
	err := w.stream(msgTaskCols, taskWire(rs, ss), func(bw *bufio.Writer) error {
		return writeTask(bw, h, rs, ss)
	})
	if err != nil {
		c.dropWorker(w, err)
	}
}

// pickLocked chooses the live plan recipient with the fewest active
// attempts, excluding a worker id. Caller holds r.mu.
func (r *run) pickLocked(exclude int64) *remote {
	load := map[int64]int{}
	for _, t := range r.tasks {
		if t.completed {
			continue
		}
		for _, a := range t.active {
			load[a.worker]++
		}
	}
	var best *remote
	bestLoad := 0
	for i := 0; i < len(r.workers); i++ {
		w := r.workers[(r.rr+i)%len(r.workers)]
		if w.id == exclude || w.dead.Load() {
			continue
		}
		if best == nil || load[w.id] < bestLoad {
			best, bestLoad = w, load[w.id]
		}
	}
	r.rr++
	return best
}

func (r *run) failLocked(err error) {
	if r.failed == nil {
		r.failed = err
		close(r.done)
	}
}

func (r *run) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pending > 0 {
		r.failLocked(err)
	}
}

// handleResult settles one task attempt: the first result for a
// partition wins, later duplicates (lost speculation races) are dropped.
func (c *Coordinator) handleResult(w *remote, m resultMsg, frameBytes int) {
	c.mu.Lock()
	r := c.runs[m.plan]
	c.mu.Unlock()
	if r == nil {
		return // plan already finished or abandoned
	}

	var losers []attempt
	r.mu.Lock()
	t := r.tasks[m.part]
	if t == nil || t.completed || r.failed != nil {
		r.mu.Unlock()
		return
	}
	t.completed = true
	winnerSpeculative := false
	for _, a := range t.active {
		if a.id == m.attempt {
			winnerSpeculative = a.speculative
		} else {
			losers = append(losers, a)
		}
	}
	t.active = nil
	// Drop the slab references: a completed task's rows are not needed
	// for any retry.
	t.rs, t.ss = nil, nil

	r.durs = append(r.durs, m.dur)
	r.busy[w.id] += m.dur
	r.results += m.results
	r.checksum += m.checksum
	r.totalCost += m.cost
	if m.cost > r.maxCost {
		r.maxCost = m.cost
	}
	if r.collect {
		r.pairs = append(r.pairs, m.pairs...)
	}
	r.cm.Tasks++
	r.cm.ResultBytes += int64(frameBytes)
	if winnerSpeculative {
		r.cm.SpeculativeWins++
	}
	r.pending--
	finished := r.pending == 0
	if finished {
		close(r.done)
	}
	r.mu.Unlock()

	// Cancel the losing attempts (best effort; a late result is ignored
	// anyway).
	if len(losers) > 0 {
		cancel := cancelMsg{plan: r.id, part: m.part}.encode()
		c.mu.Lock()
		for _, a := range losers {
			if lw := c.workers[a.worker]; lw != nil {
				go lw.send(msgCancel, cancel)
			}
		}
		c.mu.Unlock()
	}
}

// handleTaskErr re-queues a failed attempt on another worker.
func (c *Coordinator) handleTaskErr(w *remote, payload []byte) {
	m, err := decodeTaskErr(payload)
	if err != nil {
		c.dropWorker(w, err)
		return
	}
	c.mu.Lock()
	r := c.runs[m.plan]
	c.mu.Unlock()
	if r == nil {
		return
	}
	c.cfg.Log.Warn("task failed on worker",
		"plan", m.plan, "trace", r.traceID, "partition", m.part,
		"attempt", m.attempt, "worker", w.id, "err", m.msg)

	r.mu.Lock()
	t := r.tasks[m.part]
	if t == nil || t.completed || r.failed != nil {
		r.mu.Unlock()
		return
	}
	kept := t.active[:0]
	for _, a := range t.active {
		if a.id != m.attempt {
			kept = append(kept, a)
		}
	}
	t.active = kept
	if len(t.active) > 0 {
		r.mu.Unlock()
		return // a sibling attempt is still running
	}
	t.retries++
	r.cm.Retries++
	if t.retries > maxTaskRetries {
		r.failLocked(fmt.Errorf("cluster: partition %d failed %d times (last: %s)", t.part, t.retries, m.msg))
		r.mu.Unlock()
		c.broadcastPlanDone(r)
		return
	}
	next := r.pickLocked(w.id)
	if next == nil {
		next = r.pickLocked(-1) // accept the failing worker if it is the only one left
	}
	if next == nil {
		r.failLocked(fmt.Errorf("%w: partition %d has nowhere to retry", ErrNoWorkers, t.part))
		r.mu.Unlock()
		c.broadcastPlanDone(r)
		return
	}
	r.mu.Unlock()
	c.dispatch(r, t, next, false)
}

// speculateLoop duplicates straggling tasks: once a task's only attempt
// has run past max(stragglerMin, stragglerFactor × median completed
// duration), a second attempt is launched on another worker and the
// first finisher wins.
func (c *Coordinator) speculateLoop(r *run, stop <-chan struct{}) {
	ticker := time.NewTicker(stragglerMin / 4)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-r.done:
			return
		case <-ticker.C:
		}

		type spec struct {
			t *task
			w *remote
		}
		var specs []spec
		now := time.Now()
		r.mu.Lock()
		threshold := stragglerMin
		if n := len(r.durs); n > 0 {
			sorted := append([]time.Duration(nil), r.durs...)
			slices.Sort(sorted)
			if scaled := time.Duration(stragglerFactor * float64(sorted[n/2])); scaled > threshold {
				threshold = scaled
			}
		}
		if len(r.workers) > 1 && r.failed == nil {
			for _, t := range r.tasks {
				if t.completed || len(t.active) != 1 || t.active[0].speculative {
					continue
				}
				if now.Sub(t.active[0].start) < threshold {
					continue
				}
				if w := r.pickLocked(t.active[0].worker); w != nil {
					specs = append(specs, spec{t: t, w: w})
					r.cm.SpeculativeLaunched++
				}
			}
		}
		r.mu.Unlock()
		for _, s := range specs {
			c.cfg.Log.Info("speculating partition",
				"plan", r.id, "trace", r.traceID, "partition", s.t.part, "worker", s.w.id)
			c.dispatch(r, s.t, s.w, true)
		}
	}
}

// broadcastPlanDone tells every plan recipient to free the plan's state
// and drop its queued tasks.
func (c *Coordinator) broadcastPlanDone(r *run) {
	payload := encodePlanDone(r.id)
	for _, w := range r.workers {
		if !w.dead.Load() {
			go w.send(msgPlanDone, payload)
		}
	}
}

// handleSpans stitches a worker's finished task spans into the run's
// trace. Workers send spans before the matching result on the same
// connection, so the run is still registered when they arrive.
func (c *Coordinator) handleSpans(w *remote, payload []byte) {
	m, err := decodeSpans(payload)
	if err != nil {
		c.dropWorker(w, err)
		return
	}
	c.mu.Lock()
	r := c.runs[m.plan]
	c.mu.Unlock()
	if r == nil || r.tr == nil {
		return // plan finished, or an untraced run
	}
	r.tr.AddSpans(m.spans)
}
