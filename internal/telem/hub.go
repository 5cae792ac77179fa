package telem

import (
	"encoding/json"
	"sync"
	"time"
)

// Well-known series names. Keys are the tenant (for request-scoped
// series) or the JoinKey (for join-scoped series).
const (
	SeriesJoinLatency      = "join_latency_seconds"
	SeriesJoinErrors       = "join_errors"
	SeriesStragglerRatio   = "straggler_ratio"
	SeriesReplicationBytes = "replication_bytes"
	SeriesShuffleBytes     = "shuffle_bytes"
)

// Config parameterizes a Hub.
type Config struct {
	// SLO parameterizes the per-tenant tracker.
	SLO SLOConfig
	// Detector parameterizes the anomaly rules.
	Detector DetectorConfig
}

// Collector feeds one sampling tick; implementations call sample once
// per gauge they want recorded.
type Collector func(sample func(name, key string, v float64))

// Hub ties the rollup store, SLO tracker, anomaly detector, and event
// log together behind the observation API the service and router use.
type Hub struct {
	Store  *Store
	SLO    *SLOTracker
	Events *EventLog

	detector *Detector

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// NewHub builds a hub with defaults applied. No goroutines are started;
// call Start to add a periodic gauge sampler.
func NewHub(cfg Config) *Hub {
	events := NewEventLog()
	return &Hub{
		Store:    NewStore(),
		SLO:      NewSLOTracker(cfg.SLO),
		Events:   events,
		detector: NewDetector(cfg.Detector, events),
	}
}

// ObserveJoin records one completed join for a tenant: latency series,
// SLO success + latency, and a burn-rate check.
func (h *Hub) ObserveJoin(tenant string, at time.Time, seconds float64) {
	h.Store.Observe(SeriesJoinLatency, tenant, at, seconds)
	h.SLO.ObserveLatency(tenant, at, seconds)
	h.detector.ObserveBurn(tenant, at, h.SLO.BurnRate(tenant, at))
}

// ObserveJoinError records one failed or throttled join for a tenant:
// error series, SLO error, and a burn-rate check.
func (h *Hub) ObserveJoinError(tenant string, at time.Time) {
	h.Store.Observe(SeriesJoinErrors, tenant, at, 1)
	h.SLO.ObserveError(tenant, at)
	h.detector.ObserveBurn(tenant, at, h.SLO.BurnRate(tenant, at))
}

// ObserveSkew records one join's skew report keyed by JoinKey: straggler
// ratio, replication and shuffle bytes series, plus the straggler and
// replication anomaly rules.
func (h *Hub) ObserveSkew(tenant, key string, at time.Time, stragglerRatio float64, replicationBytes, shuffleBytes int64) {
	if stragglerRatio > 0 {
		h.Store.Observe(SeriesStragglerRatio, key, at, stragglerRatio)
	}
	if replicationBytes > 0 {
		h.Store.Observe(SeriesReplicationBytes, key, at, float64(replicationBytes))
	}
	if shuffleBytes > 0 {
		h.Store.Observe(SeriesShuffleBytes, key, at, float64(shuffleBytes))
	}
	h.detector.ObserveSkew(tenant, key, at, stragglerRatio, replicationBytes)
}

// Start launches a sampling loop invoking collect every interval.
// Calling Start twice replaces the previous loop.
func (h *Hub) Start(every time.Duration, collect Collector) {
	if every <= 0 || collect == nil {
		return
	}
	h.Stop()
	h.mu.Lock()
	stop := make(chan struct{})
	done := make(chan struct{})
	h.stop, h.done = stop, done
	h.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				collect(func(name, key string, v float64) {
					h.Store.Observe(name, key, now, v)
				})
			}
		}
	}()
}

// Stop terminates the sampling loop, if any, and waits for it.
func (h *Hub) Stop() {
	h.mu.Lock()
	stop, done := h.stop, h.done
	h.stop, h.done = nil, nil
	h.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// hubSnap is the persisted form of a hub: series history and the event
// log. SLO counters are deliberately session-scoped (like /metrics) —
// an error budget should not survive a deploy.
type hubSnap struct {
	Store  storeSnap `json:"store"`
	Events []Event   `json:"events,omitempty"`
}

// MarshalSnapshot serializes series history and events to JSON.
func (h *Hub) MarshalSnapshot() ([]byte, error) {
	return json.Marshal(hubSnap{Store: h.Store.snapshot(), Events: h.Events.snapshot()})
}

// RestoreSnapshot replaces series history and events with a snapshot
// produced by MarshalSnapshot.
func (h *Hub) RestoreSnapshot(b []byte) error {
	var snap hubSnap
	if err := json.Unmarshal(b, &snap); err != nil {
		return err
	}
	h.Store.restore(snap.Store)
	h.Events.restore(snap.Events)
	return nil
}
