package telem

import (
	"slices"
	"sync"
	"time"
)

// DefaultObjective is the availability objective used when none is
// configured: 99.5% of requests succeed.
const DefaultObjective = 0.995

// sloWindow is the burn-rate window.
const sloWindow = time.Minute

// SLOConfig parameterizes a tracker.
type SLOConfig struct {
	// Objective is the availability objective in (0, 1); errors above
	// 1-Objective of traffic burn the budget. Default 0.995.
	Objective float64
}

// sloCell is one second of the burn-rate window.
type sloCell struct {
	sec           int64
	total, errors int64
}

// tenantSLO accumulates one tenant's lifetime latency histogram (over
// LatencyBounds) plus a ring of per-second cells for the windowed burn
// rate.
type tenantSLO struct {
	lat    *Histogram
	total  int64
	errors int64
	cells  []sloCell
}

// SLOTracker tracks per-tenant latency and error budgets.
type SLOTracker struct {
	mu      sync.Mutex
	cfg     SLOConfig
	tenants map[string]*tenantSLO
	order   []string
}

// NewSLOTracker builds a tracker with defaults applied.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	if cfg.Objective <= 0 || cfg.Objective >= 1 {
		cfg.Objective = DefaultObjective
	}
	return &SLOTracker{cfg: cfg, tenants: map[string]*tenantSLO{}}
}

func (t *SLOTracker) tenant(name string) *tenantSLO {
	ts, ok := t.tenants[name]
	if !ok {
		ts = &tenantSLO{lat: newHistogram(LatencyBounds)}
		t.tenants[name] = ts
		t.order = append(t.order, name)
	}
	return ts
}

// ObserveLatency records one successful request's latency and counts it
// against the availability window as a success.
func (t *SLOTracker) ObserveLatency(tenant string, at time.Time, seconds float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.tenant(tenant)
	ts.lat.Observe(seconds)
	t.result(ts, at, false)
}

// ObserveError counts one failed (or throttled) request against the
// tenant's error budget.
func (t *SLOTracker) ObserveError(tenant string, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.result(t.tenant(tenant), at, true)
}

func (t *SLOTracker) result(ts *tenantSLO, at time.Time, isErr bool) {
	ts.total++
	if isErr {
		ts.errors++
	}
	sec := at.Unix()
	n := len(ts.cells)
	if n == 0 || ts.cells[n-1].sec != sec {
		ts.cells = append(ts.cells, sloCell{sec: sec})
		n++
		keep := int(sloWindow/time.Second) + 1
		if over := n - keep; over > 0 {
			ts.cells = append(ts.cells[:0], ts.cells[over:]...)
			n = len(ts.cells)
		}
	}
	c := &ts.cells[n-1]
	c.total++
	if isErr {
		c.errors++
	}
}

// BurnRate returns the tenant's current budget burn: windowed error
// rate divided by the budget (1-objective). 1.0 means the budget is
// being consumed exactly as provisioned; >1 means it is burning down.
func (t *SLOTracker) BurnRate(tenant string, now time.Time) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts, ok := t.tenants[tenant]
	if !ok {
		return 0
	}
	_, wTotal, wErrors := t.window(ts, now)
	return burn(t.cfg.Objective, wTotal, wErrors)
}

func burn(objective float64, total, errors int64) float64 {
	if total == 0 {
		return 0
	}
	budget := 1 - objective
	if budget <= 0 {
		return 0
	}
	return float64(errors) / float64(total) / budget
}

// window sums cells inside the lookback.
func (t *SLOTracker) window(ts *tenantSLO, now time.Time) (secs int64, total, errors int64) {
	lo := now.Add(-sloWindow).Unix()
	for _, c := range ts.cells {
		if c.sec <= lo {
			continue
		}
		total += c.total
		errors += c.errors
	}
	return int64(sloWindow / time.Second), total, errors
}

// SLOStatus is one tenant's SLO state on the wire. It carries the raw
// latency bucket counts so an aggregator (the fleet router) can merge
// tenants across shards exactly and re-interpolate fleet percentiles.
type SLOStatus struct {
	Tenant        string    `json:"tenant"`
	Objective     float64   `json:"objective"`
	Total         int64     `json:"total"`
	Errors        int64     `json:"errors"`
	ErrorRate     float64   `json:"error_rate"`
	P50Millis     float64   `json:"p50_ms"`
	P99Millis     float64   `json:"p99_ms"`
	BurnRate      float64   `json:"burn_rate"`
	WindowSeconds int64     `json:"window_seconds"`
	WindowTotal   int64     `json:"window_total"`
	WindowErrors  int64     `json:"window_errors"`
	LatencyBounds []float64 `json:"latency_bounds,omitempty"`
	LatencyCounts []int64   `json:"latency_counts,omitempty"` // per-bucket, len(bounds)+1
	LatencySum    float64   `json:"latency_sum"`
	LatencyCount  int64     `json:"latency_count"`
}

// Status reports every tenant in first-seen order.
func (t *SLOTracker) Status(now time.Time) []SLOStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SLOStatus, 0, len(t.order))
	for _, name := range t.order {
		ts := t.tenants[name]
		wSecs, wTotal, wErrors := t.window(ts, now)
		counts, sum, n := ts.lat.read()
		st := SLOStatus{
			Tenant:        name,
			Objective:     t.cfg.Objective,
			Total:         ts.total,
			Errors:        ts.errors,
			P50Millis:     PercentileFromBuckets(LatencyBounds, counts, 0.50) * 1000,
			P99Millis:     PercentileFromBuckets(LatencyBounds, counts, 0.99) * 1000,
			BurnRate:      burn(t.cfg.Objective, wTotal, wErrors),
			WindowSeconds: wSecs,
			WindowTotal:   wTotal,
			WindowErrors:  wErrors,
			LatencyBounds: LatencyBounds,
			LatencyCounts: counts,
			LatencySum:    sum,
			LatencyCount:  n,
		}
		if ts.total > 0 {
			st.ErrorRate = float64(ts.errors) / float64(ts.total)
		}
		out = append(out, st)
	}
	return out
}

// PercentileFromBuckets linearly interpolates the q-quantile (q in
// [0,1]) from cumulative-style histogram data: bounds are ascending
// upper bounds in seconds, counts are per-bucket with one extra
// overflow bucket. Returns 0 when there are no observations; the
// overflow bucket clamps to the highest bound.
func PercentileFromBuckets(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := bounds[i]
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum = next
	}
	return bounds[len(bounds)-1]
}

// MergeSLO merges per-shard statuses into one row per tenant: counts
// add, percentiles re-interpolate from the summed buckets, burn rate
// recomputes from the summed windows. Rows whose bucket layouts do not
// match the first row seen for that tenant keep counts but contribute
// no latency detail (mixed-version fleets degrade gracefully).
func MergeSLO(groups ...[]SLOStatus) []SLOStatus {
	var order []string
	merged := map[string]*SLOStatus{}
	for _, sts := range groups {
		for _, st := range sts {
			m, ok := merged[st.Tenant]
			if !ok {
				cp := st
				cp.LatencyBounds = append([]float64(nil), st.LatencyBounds...)
				cp.LatencyCounts = append([]int64(nil), st.LatencyCounts...)
				merged[st.Tenant] = &cp
				order = append(order, st.Tenant)
				continue
			}
			m.Total += st.Total
			m.Errors += st.Errors
			m.WindowTotal += st.WindowTotal
			m.WindowErrors += st.WindowErrors
			m.LatencySum += st.LatencySum
			m.LatencyCount += st.LatencyCount
			if len(st.LatencyCounts) == len(m.LatencyCounts) && slices.Equal(st.LatencyBounds, m.LatencyBounds) {
				for i, c := range st.LatencyCounts {
					m.LatencyCounts[i] += c
				}
			}
		}
	}
	out := make([]SLOStatus, 0, len(order))
	for _, tenant := range order {
		m := merged[tenant]
		m.P50Millis = PercentileFromBuckets(m.LatencyBounds, m.LatencyCounts, 0.50) * 1000
		m.P99Millis = PercentileFromBuckets(m.LatencyBounds, m.LatencyCounts, 0.99) * 1000
		m.ErrorRate = 0
		if m.Total > 0 {
			m.ErrorRate = float64(m.Errors) / float64(m.Total)
		}
		m.BurnRate = burn(m.Objective, m.WindowTotal, m.WindowErrors)
		out = append(out, *m)
	}
	return out
}
