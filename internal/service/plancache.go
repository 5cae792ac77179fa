package service

import (
	"container/list"
	"sync"

	"spatialjoin"
)

// PlanKey identifies one prepared plan: the dataset pair (by name AND
// revision AND generation, so both re-uploads and in-place mutations via
// Registry.Apply invalidate), the join parameters, and the algorithm.
// Two requests with equal keys can share a plan.
type PlanKey struct {
	R, S           string
	RRev, SRev     int64
	RGen, SGen     int64
	Eps            float64
	Algorithm      spatialjoin.Algorithm
	Workers        int
	Partitions     int
	SampleFraction float64
	Seed           int64
	UseLPT         bool
	GridRes        float64

	// disk marks the disk engine's plans; their Eps is the power-of-two
	// ceiling the files are partitioned for.
	disk bool
}

// cachedPlan is what the plan cache holds: a point join's PreparedJoin
// or the disk engine's mapped files.
type cachedPlan interface {
	// FootprintBytes is the plan's share of the plan_cache_bytes gauge.
	FootprintBytes() int64
}

// freer is a cachedPlan holding more than memory. free runs exactly once,
// when the plan is neither cached nor held by any join.
type freer interface{ free() }

// planCache is an LRU cache of prepared plans with single-flight
// construction: concurrent requests for the same key build the plan
// exactly once and share the result. Errors are returned to every
// waiter but never cached. Every plan handed out is reference-counted,
// so an entry evicted or invalidated while joins still run on it is
// freed only after the last of them releases it.
type planCache struct {
	cap     int
	metrics *Metrics

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	items    map[PlanKey]*list.Element
	bytes    int64
	inflight map[PlanKey]*planCall
}

// planEntry is one plan. refs counts the joins holding it, plus one
// while it is cached.
type planEntry struct {
	key  PlanKey
	plan cachedPlan
	refs int
}

type planCall struct {
	done    chan struct{}
	entry   *planEntry
	err     error
	waiters int  // callers waiting on done, each owed a reference
	stale   bool // Invalidate ran during the build: do not cache it
}

func newPlanCache(capacity int, m *Metrics) *planCache {
	return &planCache{
		cap:      capacity,
		metrics:  m,
		ll:       list.New(),
		items:    map[PlanKey]*list.Element{},
		inflight: map[PlanKey]*planCall{},
	}
}

// GetOrBuild returns the cached plan for key, or builds it with build.
// The bool reports whether the caller skipped construction (a hit,
// including a wait on another caller's build); release must be called
// once the caller is done with the plan.
func (c *planCache) GetOrBuild(key PlanKey, build func() (cachedPlan, error)) (cachedPlan, bool, func(), error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*planEntry)
		e.refs++
		c.mu.Unlock()
		return e.plan, true, c.releaser(e), nil
	}
	if call, ok := c.inflight[key]; ok {
		call.waiters++
		c.mu.Unlock()
		<-call.done
		if call.err != nil {
			return nil, false, nil, call.err
		}
		return call.entry.plan, true, c.releaser(call.entry), nil
	}
	call := &planCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()

	plan, err := build()

	var freed []*planEntry
	c.mu.Lock()
	delete(c.inflight, key)
	call.err = err
	if err == nil {
		call.entry = &planEntry{key: key, plan: plan, refs: 1 + call.waiters}
		if !call.stale {
			freed = c.insert(call.entry)
		}
	}
	c.mu.Unlock()
	close(call.done)
	freeAll(freed)
	if err != nil {
		return nil, false, nil, err
	}
	return plan, false, c.releaser(call.entry), nil
}

// releaser returns the func that drops one join's reference to e.
func (c *planCache) releaser(e *planEntry) func() {
	return func() {
		c.mu.Lock()
		e.refs--
		last := e.refs == 0
		c.mu.Unlock()
		if last {
			freeAll([]*planEntry{e})
		}
	}
}

// insert caches e and evicts from the LRU tail past capacity, returning
// the evicted entries no join holds. Callers hold c.mu.
func (c *planCache) insert(e *planEntry) (freed []*planEntry) {
	e.refs++
	c.items[e.key] = c.ll.PushFront(e)
	c.bytes += e.plan.FootprintBytes()
	for c.cap > 0 && c.ll.Len() > c.cap {
		freed = c.drop(c.ll.Back(), freed)
		c.metrics.PlanCacheEvictions.Inc()
	}
	c.setGauges()
	return freed
}

// drop uncaches el, appending its entry to freed when no join holds it.
// Callers hold c.mu.
func (c *planCache) drop(el *list.Element, freed []*planEntry) []*planEntry {
	e := el.Value.(*planEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.plan.FootprintBytes()
	if e.refs--; e.refs == 0 {
		freed = append(freed, e)
	}
	return freed
}

func (c *planCache) setGauges() {
	c.metrics.PlanCacheEntries.Set(int64(c.ll.Len()))
	c.metrics.PlanCacheBytes.Set(c.bytes)
}

// Invalidate drops every cached plan that references dataset name — used
// when a dataset is deleted or replaced — and keeps a build in flight for
// it out of the cache. (Replacement alone is already safe via revisions;
// invalidation frees plans and their files eagerly.)
func (c *planCache) Invalidate(name string) {
	c.invalidate(func(k PlanKey) bool { return k.R == name || k.S == name })
}

// invalidate drops every plan whose key matches.
func (c *planCache) invalidate(match func(PlanKey) bool) {
	var freed []*planEntry
	c.mu.Lock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if match(el.Value.(*planEntry).key) {
			freed = c.drop(el, freed)
		}
		el = next
	}
	for key, call := range c.inflight {
		if match(key) {
			call.stale = true
		}
	}
	c.setGauges()
	c.mu.Unlock()
	freeAll(freed)
}

// freeAll frees the plans that hold more than memory.
func freeAll(es []*planEntry) {
	for _, e := range es {
		if f, ok := e.plan.(freer); ok {
			f.free()
		}
	}
}
