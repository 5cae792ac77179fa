package stream

import (
	"fmt"
	"math"
	"sync"
	"time"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/replicate"
	"spatialjoin/internal/tuple"
)

// Config tunes a streaming join engine. Eps and Bounds are required: a
// stream has no materialised input to infer the data-space MBR from, so
// the caller declares it up front (points outside are clamped into the
// border cells, which keeps the join correct at the cost of some extra
// replication there).
type Config struct {
	// Eps is the join distance threshold (required, > 0).
	Eps float64
	// Bounds is the data-space MBR the grid covers (required, non-empty).
	Bounds geom.Rect
	// GridRes is the resolution multiplier (cell side = GridRes·ε);
	// 2 when zero. Must be >= 2: the engine always runs the adaptive
	// algorithms, which require l >= 2ε. At exactly 2 the closed ε-strips
	// of opposite borders meet on a cell's centre lines, and a point lying
	// exactly on one (measure zero for continuous data) is classified into
	// a single replication area — the same convention as the batch
	// pipeline. Streams whose points snap to a lattice that can hit centre
	// lines exactly should use GridRes > 2.
	GridRes float64
	// Policy selects the agreement policy re-evaluated by the rebalancer
	// (LPiB by default).
	Policy agreements.Policy
	// TTL, when positive, expires points that have not been re-upserted
	// for this long — a sliding-window join. Expiry runs on every Apply
	// and on explicit ExpireBefore calls.
	TTL time.Duration
	// RebalanceEvery is the number of mutations between agreement-drift
	// scans; 256 when zero, negative disables automatic rebalancing
	// (explicit Rebalance calls still work).
	RebalanceEvery int
	// Now is the clock used for TTL bookkeeping; time.Now when nil.
	Now func() time.Time
	// Tracer, when non-nil, records a span per rebalance cycle and slab
	// compaction. The tracer's span cap (obs.DefaultLimit unless raised
	// with SetLimit) bounds memory on long-lived streams; nil costs
	// nothing.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.GridRes == 0 {
		c.GridRes = 2
	}
	if c.RebalanceEvery == 0 {
		c.RebalanceEvery = 256
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Mutation is one stream event: an upsert (insert, or move/refresh of an
// existing id) or a delete of a point in one input set.
type Mutation struct {
	Set    tuple.Set
	Delete bool
	Tuple  tuple.Tuple // for deletes only the ID is consulted
}

// Counters is a snapshot of the engine's cumulative and live statistics.
type Counters struct {
	Upserts, Deletes, Expired int64 // mutations applied
	Rejected                  int64 // malformed mutations skipped
	DeltasAdded               int64 // +pair deltas emitted
	DeltasRemoved             int64 // -pair deltas emitted
	SlabRebuilds              int64 // per-cell sweep slabs recompacted
	RebalanceRuns             int64 // drift scans executed
	AgreementFlips            int64 // cell-pair agreements re-decided
	Migrations                int64 // replica copies moved by flips

	LiveR, LiveS int64 // live points per set
	Replicas     int64 // current replica copies beyond native cells
	Subscribers  int64
}

// BatchResult reports what one Apply (or Rebalance/ExpireBefore) did, as
// the difference of the cumulative counters around the call.
type BatchResult struct {
	Upserts, Deletes, Expired, Rejected int64
	DeltasAdded, DeltasRemoved          int64
	SlabRebuilds                        int64
	RebalanceRuns, AgreementFlips       int64
	Migrations                          int64
}

// entry is one live point: its tuple, the cells the graph currently
// assigns it to (native first — kept in lockstep with the graph by the
// rebalancer's migrations), and its TTL arrival time.
type entry struct {
	t     tuple.Tuple
	cells []int32
	ts    time.Time
}

// ttlRec is one TTL queue record; a refresh enqueues a newer record and
// the stale one is skipped at expiry (lazy deletion).
type ttlRec struct {
	id int64
	ts time.Time
}

// Engine is the incremental streaming ε-join: it ingests point upserts
// and deletes for R and S, maintains the paper's structures delta-wise,
// and emits +pair/-pair deltas to subscribers. All methods are safe for
// concurrent use; mutations are serialised so subscribers observe one
// total delta order.
//
// The partitioning structures are the batch path's own: the grid, exact
// per-cell histograms over the live points (grid.Stats fed by Add/Remove
// rather than a one-shot sample), and the graph of agreements, which is
// the one store of every pair's agreement type. Statistics drift with
// every mutation, but a pair's type only changes when the rebalancer
// commits a flip through Graph.SetPairType, which keeps the graph
// consistent (Def. 4.2) between flips by construction.
type Engine struct {
	cfg Config
	g   *grid.Grid

	mu       sync.Mutex  // guards every field below
	stats    *grid.Stats // exact live histograms, mutated per point
	graph    *agreements.Graph
	cells    [][2]slab // per cell, one slab per set: its native points and replicas alike
	live     [2]map[int64]*entry
	ttlq     [2][]ttlRec
	dirty    map[int]struct{} // cells whose histograms changed since the last drift scan
	pairKeys []int            // drift scan scratch: canonical keys of the pairs to examine
	sinceReb int
	subs     map[*Subscription]struct{}
	c        Counters
	pending  []Delta // deltas of the in-progress operation, flushed on unlock
	scratch  []int
	sel      []int32 // slab probe selection scratch
}

// New builds an engine over an empty stream.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Eps <= 0 || math.IsNaN(cfg.Eps) || math.IsInf(cfg.Eps, 0) {
		return nil, fmt.Errorf("stream: Config.Eps must be positive and finite, got %v", cfg.Eps)
	}
	if cfg.Bounds.IsEmpty() || cfg.Bounds.Width() <= 0 || cfg.Bounds.Height() <= 0 {
		return nil, fmt.Errorf("stream: Config.Bounds %+v must have positive extent", cfg.Bounds)
	}
	if cfg.GridRes < 2 {
		return nil, fmt.Errorf("stream: Config.GridRes %v violates the l >= 2ε requirement of adaptive replication", cfg.GridRes)
	}
	switch cfg.Policy {
	case agreements.LPiB, agreements.DIFF:
	default:
		return nil, fmt.Errorf("stream: unsupported policy %v (LPiB or DIFF)", cfg.Policy)
	}
	if err := grid.Check(cfg.Bounds, cfg.Eps, cfg.GridRes); err != nil {
		return nil, fmt.Errorf("stream: eps %v: %w", cfg.Eps, err)
	}
	g := grid.New(cfg.Bounds, cfg.Eps, cfg.GridRes)
	// Empty statistics tie every pair to R, the policy's deterministic
	// default.
	stats := grid.NewStats(g)
	return &Engine{
		cfg:   cfg,
		g:     g,
		stats: stats,
		graph: agreements.Build(stats, cfg.Policy),
		cells: make([][2]slab, g.NumCells()),
		live:  [2]map[int64]*entry{{}, {}},
		dirty: map[int]struct{}{},
		subs:  map[*Subscription]struct{}{},
	}, nil
}

// Eps returns the join distance threshold.
func (e *Engine) Eps() float64 { return e.cfg.Eps }

// Grid returns the engine's grid (shape diagnostics; do not mutate).
func (e *Engine) Grid() *grid.Grid { return e.g }

// Counters returns a snapshot of the engine's statistics.
func (e *Engine) Counters() Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.countersLocked()
}

func (e *Engine) countersLocked() Counters {
	c := e.c
	c.LiveR = int64(len(e.live[tuple.R]))
	c.LiveS = int64(len(e.live[tuple.S]))
	c.Subscribers = int64(len(e.subs))
	return c
}

// Subscribe attaches a new delta subscriber. Deltas emitted after this
// call are queued for it in emission order; pair it with Close.
func (e *Engine) Subscribe() *Subscription {
	s, _ := e.subscribe(false)
	return s
}

// SubscribeWithSnapshot atomically materialises the current result set and
// attaches a subscriber: the returned pairs plus the subscription's future
// deltas reconstruct the live result set with no gap and no overlap —
// the consistent hand-off for late subscribers.
func (e *Engine) SubscribeWithSnapshot() (*Subscription, []tuple.Pair) {
	return e.subscribe(true)
}

func (e *Engine) subscribe(withSnapshot bool) (*Subscription, []tuple.Pair) {
	s := newSubscription()
	e.mu.Lock()
	var snap []tuple.Pair
	if withSnapshot {
		snap = e.currentPairsLocked()
	}
	e.subs[s] = struct{}{}
	e.mu.Unlock()
	s.cancel = func() {
		e.mu.Lock()
		delete(e.subs, s)
		e.mu.Unlock()
	}
	return s, snap
}

// Close closes every subscription and detaches them from the engine. The
// engine itself remains usable; Close is how a serving layer tears down a
// stream's consumers when the stream is deleted.
func (e *Engine) Close() {
	e.mu.Lock()
	subs := make([]*Subscription, 0, len(e.subs))
	for s := range e.subs {
		subs = append(subs, s)
	}
	e.subs = map[*Subscription]struct{}{}
	e.mu.Unlock()
	for _, s := range subs {
		s.Close()
	}
}

// Upsert inserts, moves, or refreshes one point of set.
func (e *Engine) Upsert(set tuple.Set, t tuple.Tuple) BatchResult {
	return e.Apply([]Mutation{{Set: set, Tuple: t}})
}

// Delete removes one point of set by id (a no-op for unknown ids).
func (e *Engine) Delete(set tuple.Set, id int64) BatchResult {
	return e.Apply([]Mutation{{Set: set, Delete: true, Tuple: tuple.Tuple{ID: id}}})
}

// Apply ingests a batch of mutations atomically with respect to
// subscribers and snapshots: TTL expiry runs first, then each mutation
// in order, then (every Config.RebalanceEvery mutations) the agreement
// drift scan. Emitted deltas are flushed to subscribers once, after the
// whole batch.
func (e *Engine) Apply(batch []Mutation) BatchResult {
	e.mu.Lock()
	before := e.c
	if e.cfg.TTL > 0 {
		e.expireLocked(e.cfg.Now().Add(-e.cfg.TTL))
	}
	now := e.cfg.Now()
	for _, m := range batch {
		if m.Delete {
			if e.deleteLocked(m.Set, m.Tuple.ID) {
				e.c.Deletes++
			}
			e.sinceReb++
			continue
		}
		if badPoint(m.Tuple.Pt) {
			e.c.Rejected++
			continue
		}
		e.upsertLocked(m.Set, m.Tuple, now)
		e.c.Upserts++
		e.sinceReb++
	}
	if e.cfg.RebalanceEvery > 0 && e.sinceReb >= e.cfg.RebalanceEvery {
		e.rebalanceLocked()
		e.sinceReb = 0
	}
	res := diffCounters(before, e.c)
	e.flushLocked()
	e.mu.Unlock()
	return res
}

// Rebalance runs the agreement drift scan immediately: every cell whose
// histogram changed since the last scan has its pairs re-decided, and
// each flipped pair's quartets are rebuilt and migrated.
func (e *Engine) Rebalance() BatchResult {
	e.mu.Lock()
	before := e.c
	e.rebalanceLocked()
	e.sinceReb = 0
	res := diffCounters(before, e.c)
	e.flushLocked()
	e.mu.Unlock()
	return res
}

// ExpireBefore removes every live point last upserted before cutoff,
// emitting -pair deltas for the pairs that disappear. It works with or
// without a configured TTL (without one, arrival times are still
// recorded only when TTL > 0, so it is then a no-op).
func (e *Engine) ExpireBefore(cutoff time.Time) BatchResult {
	e.mu.Lock()
	before := e.c
	e.expireLocked(cutoff)
	res := diffCounters(before, e.c)
	e.flushLocked()
	e.mu.Unlock()
	return res
}

// CurrentPairs returns the quiescent result set: the ε-join of the live
// points, materialised by sweeping every cell's slabs. Under the graph's
// co-location invariant each qualifying pair is produced by exactly one
// cell, so the output is duplicate-free and must equal the accumulated
// deltas — the correctness anchor of the engine's tests — and serves as
// the initial snapshot for late subscribers.
func (e *Engine) CurrentPairs() []tuple.Pair {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.currentPairsLocked()
}

func (e *Engine) currentPairsLocked() []tuple.Pair {
	bufs := colsweep.Get()
	defer colsweep.Put(bufs)
	out := bufs.Sink(true, false)
	for i := range e.cells {
		cs := &e.cells[i]
		rs := cs[tuple.R].sorted()
		ss := cs[tuple.S].sorted()
		if rs.Len() == 0 || ss.Len() == 0 {
			continue
		}
		colsweep.SweepSorted(rs, ss, e.cfg.Eps, out)
	}
	return out.Pairs
}

// --- locked internals -------------------------------------------------

func badPoint(p geom.Point) bool {
	return math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0)
}

func (e *Engine) upsertLocked(set tuple.Set, t tuple.Tuple, now time.Time) {
	en, ok := e.live[set][t.ID]
	if ok {
		if en.t.Pt == t.Pt {
			// Pure refresh: position unchanged, no deltas, just payload
			// and TTL bookkeeping.
			en.t = t
			en.ts = now
			if e.cfg.TTL > 0 {
				e.ttlq[set] = append(e.ttlq[set], ttlRec{id: t.ID, ts: now})
			}
			return
		}
		// A move: retract the old position, then reuse the retired entry
		// and its cells slice for the new one.
		e.removeEntryLocked(set, en)
	} else {
		en = &entry{}
	}
	cells := replicate.Adaptive(e.graph, t.Pt, set, e.scratch[:0])
	e.scratch = cells
	en.t, en.ts = t, now
	en.cells = en.cells[:0]
	for _, c := range cells {
		en.cells = append(en.cells, int32(c))
	}
	other := set.Other()
	for _, c := range cells {
		cs := &e.cells[c]
		e.sel = cs[other].probe(t.Pt, e.cfg.Eps, e.sel, func(id int64) {
			e.emitLocked(Add, set, t.ID, id)
		})
		cs[set].insert(t.ID, t.Pt)
		e.compactSlab(&cs[set], set, c)
	}
	e.stats.Add(set, t.Pt)
	e.dirty[cells[0]] = struct{}{}
	e.live[set][t.ID] = en
	e.c.Replicas += int64(len(cells) - 1)
	if e.cfg.TTL > 0 {
		e.ttlq[set] = append(e.ttlq[set], ttlRec{id: t.ID, ts: now})
	}
}

func (e *Engine) deleteLocked(set tuple.Set, id int64) bool {
	en, ok := e.live[set][id]
	if !ok {
		return false
	}
	e.removeEntryLocked(set, en)
	return true
}

// removeEntryLocked retracts a live point: -pair deltas for every pair
// it participates in (probed in its assigned cells, where each pair is
// co-located exactly once), slab removal, histogram and index upkeep.
func (e *Engine) removeEntryLocked(set tuple.Set, en *entry) {
	other := set.Other()
	id := en.t.ID
	for _, c32 := range en.cells {
		cs := &e.cells[c32]
		cs[set].remove(id, en.t.Pt)
		e.sel = cs[other].probe(en.t.Pt, e.cfg.Eps, e.sel, func(pid int64) {
			e.emitLocked(Remove, set, id, pid)
		})
		e.compactSlab(&cs[set], set, int(c32))
	}
	e.stats.Remove(set, en.t.Pt)
	e.dirty[int(en.cells[0])] = struct{}{}
	delete(e.live[set], id)
	e.c.Replicas -= int64(len(en.cells) - 1)
}

func (e *Engine) expireLocked(cutoff time.Time) {
	for set := tuple.R; set <= tuple.S; set++ {
		q := e.ttlq[set]
		for len(q) > 0 && q[0].ts.Before(cutoff) {
			rec := q[0]
			q = q[1:]
			if en, ok := e.live[set][rec.id]; ok && !en.ts.After(rec.ts) {
				e.removeEntryLocked(set, en)
				e.c.Expired++
			}
		}
		e.ttlq[set] = q
	}
}

// emitLocked buffers one delta, oriented so RID always names the R-side
// tuple regardless of which set mutated.
func (e *Engine) emitLocked(op Op, mutated tuple.Set, mutatedID, partnerID int64) {
	d := Delta{Op: op, RID: mutatedID, SID: partnerID}
	if mutated == tuple.S {
		d.RID, d.SID = partnerID, mutatedID
	}
	e.pending = append(e.pending, d)
	if op == Add {
		e.c.DeltasAdded++
	} else {
		e.c.DeltasRemoved++
	}
}

// flushLocked hands the operation's buffered deltas to every subscriber.
func (e *Engine) flushLocked() {
	if len(e.pending) == 0 {
		return
	}
	for s := range e.subs {
		s.push(e.pending)
	}
	e.pending = e.pending[:0]
}

func diffCounters(before, after Counters) BatchResult {
	return BatchResult{
		Upserts:        after.Upserts - before.Upserts,
		Deletes:        after.Deletes - before.Deletes,
		Expired:        after.Expired - before.Expired,
		Rejected:       after.Rejected - before.Rejected,
		DeltasAdded:    after.DeltasAdded - before.DeltasAdded,
		DeltasRemoved:  after.DeltasRemoved - before.DeltasRemoved,
		SlabRebuilds:   after.SlabRebuilds - before.SlabRebuilds,
		RebalanceRuns:  after.RebalanceRuns - before.RebalanceRuns,
		AgreementFlips: after.AgreementFlips - before.AgreementFlips,
		Migrations:     after.Migrations - before.Migrations,
	}
}
