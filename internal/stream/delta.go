// Package stream is the incremental streaming join engine: a long-running
// continuous ε-distance join over live point streams that maintains the
// paper's structures — grid, per-cell histograms, graph of agreements,
// per-cell sweep slabs — incrementally, and emits delta result pairs
// (+pair when a qualifying pair appears, -pair when one disappears) as
// points are upserted, deleted, or expired.
//
// Where the batch pipeline re-derives everything from a sample per join,
// the engine keeps one invariant alive across mutations: under a
// consistent resolved graph of agreements, every qualifying pair (r, s)
// is co-located in exactly one grid cell (the paper's correctness +
// duplicate-freeness results, Corollary 4.6 and Lemma 4.8). Inserting a
// point therefore only has to probe the cells the current graph assigns
// it to, and each new pair is discovered exactly once; deleting a point
// probes the same cells and retracts each of its pairs exactly once. At
// any quiescent moment the accumulated deltas equal the from-scratch
// batch join of the live points.
//
// Skew drift is handled by a rebalancer: exact live histograms (not
// samples) are maintained per cell, and when the policy's agreement
// decision for a cell pair flips, the engine atomically rebuilds just the
// subgraphs containing that pair and migrates only the replicas whose
// assignment changed — never the whole grid. Replica migration emits no
// deltas: the qualifying pair set is invariant under a consistent
// agreement change; only the co-location cells move.
package stream

import "sync"

// Op is the polarity of a delta: a pair appearing or disappearing.
type Op int8

const (
	// Add reports a pair that started qualifying (+pair).
	Add Op = +1
	// Remove reports a pair that stopped qualifying (-pair).
	Remove Op = -1
)

// String returns "+" or "-".
func (o Op) String() string {
	if o == Add {
		return "+"
	}
	return "-"
}

// Delta is one incremental join result: the pair (RID, SID) started or
// stopped satisfying d(r, s) <= ε.
type Delta struct {
	Op  Op
	RID int64
	SID int64
}

// Subscription is one subscriber's unbounded ordered delta queue. The
// engine appends under its own lock; consumers drain with Next, which
// blocks until a delta arrives or the subscription is closed. The queue
// is unbounded so a slow consumer can never block the ingest path — the
// serving layer bounds exposure by closing subscriptions whose clients
// disconnect. The queue's backing array is reused: consumers advance a
// head index, the queue resets once drained, and push slides the
// unconsumed deltas to the front before it would have to grow.
type Subscription struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Delta
	head   int // queue[head:] is not yet consumed
	closed bool

	cancel func() // detaches from the engine; idempotent
}

func newSubscription() *Subscription {
	s := &Subscription{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// push appends deltas to the queue. Called by the engine.
func (s *Subscription) push(ds []Delta) {
	if len(ds) == 0 {
		return
	}
	s.mu.Lock()
	if !s.closed {
		if s.head > 0 && len(s.queue)+len(ds) > cap(s.queue) {
			n := copy(s.queue, s.queue[s.head:])
			s.queue, s.head = s.queue[:n], 0
		}
		s.queue = append(s.queue, ds...)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Next blocks until a delta is available and returns it. The second
// result is false once the subscription is closed and drained.
func (s *Subscription) Next() (Delta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.head == len(s.queue) && !s.closed {
		s.cond.Wait()
	}
	return s.popLocked()
}

// TryNext returns the next delta without blocking; ok is false when the
// queue is currently empty (the subscription may still be open).
func (s *Subscription) TryNext() (Delta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.popLocked()
}

// popLocked takes the head delta, if any, and resets the drained queue.
func (s *Subscription) popLocked() (Delta, bool) {
	if s.head == len(s.queue) {
		return Delta{}, false
	}
	d := s.queue[s.head]
	s.head++
	if s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
	}
	return d, true
}

// Close detaches the subscription from the engine and unblocks Next.
// Queued deltas remain drainable; Close is idempotent.
func (s *Subscription) Close() {
	if s.cancel != nil {
		s.cancel()
	}
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}
