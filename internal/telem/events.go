package telem

import (
	"fmt"
	"sync"
	"time"
)

// Event kinds emitted by the Detector.
const (
	EventStragglerSpike  = "straggler_spike"
	EventReplicationJump = "replication_jump"
	EventBudgetBurn      = "latency_budget_burn"
)

// Event is one structured anomaly observation.
type Event struct {
	UnixMS    int64   `json:"unix_ms"`
	Kind      string  `json:"kind"`
	Tenant    string  `json:"tenant,omitempty"`
	Series    string  `json:"series,omitempty"` // join key or series the rule fired on
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Message   string  `json:"message"`
}

// EventLog is a bounded append-only ring of events.
type EventLog struct {
	mu     sync.Mutex
	events []Event
	total  int64
}

// eventCap bounds the event log.
const eventCap = 256

// NewEventLog builds a log retaining at most eventCap events.
func NewEventLog() *EventLog {
	return &EventLog{}
}

// Append records an event, evicting the oldest when full.
func (l *EventLog) Append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
	l.total++
	if over := len(l.events) - eventCap; over > 0 {
		l.events = append(l.events[:0], l.events[over:]...)
	}
}

// Recent returns up to limit most-recent events, oldest first.
// limit <= 0 returns everything retained.
func (l *EventLog) Recent(limit int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	evs := l.events
	if limit > 0 && len(evs) > limit {
		evs = evs[len(evs)-limit:]
	}
	return append([]Event(nil), evs...)
}

// Total counts every event ever appended, including evicted ones.
func (l *EventLog) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

func (l *EventLog) snapshot() []Event {
	return l.Recent(0)
}

func (l *EventLog) restore(evs []Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if over := len(evs) - eventCap; over > 0 {
		evs = evs[over:]
	}
	l.events = append(l.events[:0], evs...)
	if l.total < int64(len(l.events)) {
		l.total = int64(len(l.events))
	}
}

// DetectorConfig parameterizes the anomaly rules.
type DetectorConfig struct {
	// StragglerRatio fires EventStragglerSpike when a join's
	// max/median task-time ratio reaches it. Default 4.
	StragglerRatio float64
}

const (
	// replicationFactor fires EventReplicationJump when a join's
	// replication bytes exceed this multiple of the trailing mean for
	// the same (R, S, eps) key.
	replicationFactor = 3.0
	// minHistory is how many joins of a key must be seen before the
	// replication-jump rule arms.
	minHistory = 3
	// burnThreshold fires EventBudgetBurn when a tenant's burn rate
	// reaches it; the rule is edge-triggered and re-arms when the burn
	// falls below half the threshold.
	burnThreshold = 2.0
)

// trail is an exponentially-weighted trailing mean with a warmup count.
type trail struct {
	n    int
	mean float64
}

const trailAlpha = 0.3

func (t *trail) observe(v float64) {
	if t.n == 0 {
		t.mean = v
	} else {
		t.mean += trailAlpha * (v - t.mean)
	}
	t.n++
}

// Detector evaluates anomaly rules and appends hits to an EventLog.
type Detector struct {
	mu      sync.Mutex
	cfg     DetectorConfig
	log     *EventLog
	repl    map[string]*trail // per-join-key trailing replication bytes
	burning map[string]bool   // per-tenant burn edge-trigger state
}

// NewDetector builds a detector writing into log.
func NewDetector(cfg DetectorConfig, log *EventLog) *Detector {
	if cfg.StragglerRatio <= 0 {
		cfg.StragglerRatio = 4
	}
	return &Detector{
		cfg:     cfg,
		log:     log,
		repl:    map[string]*trail{},
		burning: map[string]bool{},
	}
}

// ObserveSkew evaluates the straggler and replication rules against one
// join's skew report.
func (d *Detector) ObserveSkew(tenant, key string, at time.Time, stragglerRatio float64, replicationBytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if stragglerRatio >= d.cfg.StragglerRatio {
		d.log.Append(Event{
			UnixMS: at.UnixMilli(), Kind: EventStragglerSpike, Tenant: tenant, Series: key,
			Value: stragglerRatio, Threshold: d.cfg.StragglerRatio,
			Message: fmt.Sprintf("join %s straggler ratio %.2f >= %.2f", key, stragglerRatio, d.cfg.StragglerRatio),
		})
	}
	if replicationBytes > 0 {
		tr, ok := d.repl[key]
		if !ok {
			tr = &trail{}
			d.repl[key] = tr
		}
		if tr.n >= minHistory && tr.mean > 0 &&
			float64(replicationBytes) > replicationFactor*tr.mean {
			d.log.Append(Event{
				UnixMS: at.UnixMilli(), Kind: EventReplicationJump, Tenant: tenant, Series: key,
				Value: float64(replicationBytes), Threshold: replicationFactor * tr.mean,
				Message: fmt.Sprintf("join %s replicated %d bytes, %.1fx the trailing mean %.0f",
					key, replicationBytes, float64(replicationBytes)/tr.mean, tr.mean),
			})
		}
		tr.observe(float64(replicationBytes))
	}
}

// ObserveBurn evaluates the budget-burn rule for one tenant. The rule
// is edge-triggered: one event per excursion above the threshold.
func (d *Detector) ObserveBurn(tenant string, at time.Time, burnRate float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case burnRate >= burnThreshold && !d.burning[tenant]:
		d.burning[tenant] = true
		d.log.Append(Event{
			UnixMS: at.UnixMilli(), Kind: EventBudgetBurn, Tenant: tenant,
			Value: burnRate, Threshold: burnThreshold,
			Message: fmt.Sprintf("tenant %q burning error budget at %.2fx (threshold %.2fx)", tenant, burnRate, burnThreshold),
		})
	case burnRate < burnThreshold/2:
		delete(d.burning, tenant)
	}
}
