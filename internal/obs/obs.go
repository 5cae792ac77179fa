// Package obs is a zero-dependency tracing subsystem for spatial joins.
//
// A Tracer records a tree of spans per join — plan → partition →
// replicate → (shuffle) → local sweep tasks → supplementary join →
// dedup — with wall-clock timestamps, worker attribution, and typed
// attributes (partition ids, tuple counts, pairs emitted, replicas per
// agreement type, marked/locked edge counts, shuffle bytes). The tree
// can be exported as JSON (Tree), as Chrome trace-event format
// (WriteChromeTrace, loadable in Perfetto or chrome://tracing), or
// reduced to skew diagnostics (Skew).
//
// The nil tracer is free: every method on a nil *Tracer or nil *Span is
// a no-op that performs zero allocations, so call sites on the join hot
// path need no branching. Remote spans (e.g. from cluster worker
// processes) are stitched into the coordinator's tree with AddSpans;
// span-id uniqueness across processes is the caller's job (the cluster
// protocol hands each worker a disjoint id range via NewWithID).
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one join trace across processes.
type TraceID uint64

// SpanID identifies one span within a trace. 0 means "no span" and is
// used as the parent of root spans.
type SpanID uint64

// Canonical span names. Orchestration layers use these so downstream
// consumers (skew reports, bench phase extraction) can match on them.
const (
	SpanJoin          = "join"
	SpanPlan          = "plan"
	SpanSample        = "sample"
	SpanPartition     = "partition"
	SpanReplicate     = "replicate"
	SpanShuffle       = "shuffle"
	SpanExecute       = "execute"
	SpanTask          = "task"
	SpanSupplementary = "supplementary-join"
	SpanDedup         = "dedup"
	SpanRebalance     = "rebalance"
	SpanCompact       = "compact"

	// Two-layer non-point join phase names: MBR tile assignment with
	// class tagging, the per-tile class-pair interval sweeps, and the
	// exact-geometry refinement of surviving candidates.
	SpanAssign = "assign"
	SpanSweep  = "sweep"
	SpanRefine = "refine"

	// Fleet-router span names: the routing decision, one span per
	// proxied shard request, and dataset mirroring. Shard-local join
	// trees are grafted under the SpanFleetProxy spans when a stitched
	// trace is served.
	SpanFleetJoin   = "fleet.join"
	SpanFleetProxy  = "fleet.proxy"
	SpanFleetMirror = "fleet.mirror"
)

// Attr is one typed key/value attribute on a span.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// Span is one timed operation in a trace. Start/Done are unix
// nanoseconds; Done == 0 means the span has not ended. Fields are
// exported so spans can cross process boundaries (cluster wire
// protocol), but live spans must be mutated only through the methods,
// which synchronise against concurrent snapshots.
type Span struct {
	tr     *Tracer
	ID     SpanID
	Parent SpanID
	Name   string
	Worker string
	Start  int64
	Done   int64
	Attrs  []Attr
}

// DefaultLimit caps the spans retained per tracer so long-lived users
// (stream engines tracing every rebalance) cannot grow without bound.
const DefaultLimit = 1 << 16

// Tracer records spans for one trace. The zero value is not usable;
// construct with New or NewWithID. A nil *Tracer is a valid disabled
// tracer: Start returns nil and every nil-span method is a no-op.
type Tracer struct {
	id      TraceID
	next    atomic.Uint64 // last span id handed out
	limit   int
	mu      sync.Mutex
	spans   []*Span
	dropped int
}

var traceSeq atomic.Uint64

// New returns a tracer with a fresh process-unique trace id.
func New() *Tracer {
	id := TraceID(uint64(time.Now().UnixNano())<<16 | (traceSeq.Add(1) & 0xffff))
	return NewWithID(id, 0)
}

// NewWithID returns a tracer for an existing trace id whose span ids
// start above base. Cluster workers use a per-worker base so spans
// minted in different processes never collide when stitched.
func NewWithID(id TraceID, base SpanID) *Tracer {
	t := &Tracer{id: id, limit: DefaultLimit}
	t.next.Store(uint64(base))
	return t
}

// TraceID reports the trace id; 0 on a nil tracer.
func (t *Tracer) TraceID() TraceID {
	if t == nil {
		return 0
	}
	return t.id
}

// SetLimit overrides the retained-span cap (minimum 1).
func (t *Tracer) SetLimit(n int) {
	if t == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	t.limit = n
	t.mu.Unlock()
}

// Start begins a span under parent (0 for a root span). Returns nil on
// a nil tracer or when the span cap is reached; nil spans accept every
// method as a free no-op.
func (t *Tracer) Start(parent SpanID, name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		tr:     t,
		ID:     SpanID(t.next.Add(1)),
		Parent: parent,
		Name:   name,
		Start:  time.Now().UnixNano(),
	}
	t.mu.Lock()
	if len(t.spans) >= t.limit {
		t.dropped++
		t.mu.Unlock()
		return nil
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// SpanID reports the span's id; 0 on a nil span.
func (s *Span) SpanID() SpanID {
	if s == nil {
		return 0
	}
	return s.ID
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Int: v})
	s.tr.mu.Unlock()
	return s
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Str: v, IsStr: true})
	s.tr.mu.Unlock()
	return s
}

// SetWorker attributes the span to a named worker (thread lane in the
// Chrome trace, bucket in the skew report).
func (s *Span) SetWorker(w string) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	s.Worker = w
	s.tr.mu.Unlock()
	return s
}

// End marks the span finished. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now().UnixNano()
	s.tr.mu.Lock()
	if s.Done == 0 {
		s.Done = now
	}
	s.tr.mu.Unlock()
}

// AddSpans imports already-finished spans (typically decoded from a
// remote worker) into the trace, subject to the span cap.
func (t *Tracer) AddSpans(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	for i := range spans {
		if len(t.spans) >= t.limit {
			t.dropped += len(spans) - i
			break
		}
		s := spans[i]
		s.tr = t
		t.spans = append(t.spans, &s)
	}
	t.mu.Unlock()
}

// TakeSpans returns the recorded spans and clears the buffer while
// keeping the span-id counter, so cluster workers can ship spans to the
// coordinator incrementally (after each task) without resending or
// reusing ids. Unfinished spans are retained for a later take.
func (t *Tracer) TakeSpans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var out []Span
	kept := t.spans[:0]
	for _, s := range t.spans {
		if s.Done == 0 {
			kept = append(kept, s)
			continue
		}
		c := *s
		c.tr = nil
		c.Attrs = append([]Attr(nil), s.Attrs...)
		out = append(out, c)
	}
	t.spans = kept
	t.mu.Unlock()
	return out
}

// Spans returns a snapshot copy of all recorded spans in append order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	for i, s := range t.spans {
		out[i] = *s
		out[i].tr = nil
		out[i].Attrs = append([]Attr(nil), s.Attrs...)
	}
	t.mu.Unlock()
	return out
}

// Dropped reports how many spans were discarded at the cap.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len reports the number of retained spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
