// Package service is the serving layer of the spatial-join library: a
// long-running join service with a dataset registry, a prepared-plan
// cache (LRU + single-flight), a bounded execution pool with admission
// control, and Prometheus-style metrics. cmd/sjoind wraps it in an HTTP
// daemon.
//
// The design amortises the paper's whole construction pipeline —
// sampling, grid + graph-of-agreements build, adaptive replication,
// shuffle — across many queries: the first request for a (datasets, ε,
// algorithm) combination builds a PreparedJoin via the root facade, and
// every subsequent request (including concurrent duplicates, which
// single-flight collapses into one build) pays only the partition-level
// join probes.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spatialjoin"
	"spatialjoin/internal/dstore"
	"spatialjoin/internal/fleet"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/telem"
)

// Config tunes the service. Zero values select sensible defaults.
type Config struct {
	// MaxConcurrent bounds simultaneously executing joins; default
	// GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds joins waiting for a slot; beyond it requests are
	// rejected with ErrOverloaded (HTTP 429). Default 64.
	MaxQueue int
	// PlanCacheSize is the LRU capacity in plans; default 32.
	PlanCacheSize int
	// DefaultTimeout applies to join requests that set none; default 30s.
	DefaultTimeout time.Duration
	// MaxUploadBytes bounds dataset upload bodies; default 64 MiB.
	MaxUploadBytes int64
	// MaxCollect caps the pairs a single response may materialise;
	// default 10000.
	MaxCollect int
	// TenantQuota layers per-tenant admission on top of the global
	// pool: each tenant (the X-Tenant request header; empty is the
	// anonymous tenant) gets a token bucket of Rate joins per second
	// with Burst capacity. The zero value disables per-tenant admission
	// for tenants without an override.
	TenantQuota fleet.Quota
	// TenantOverrides names per-tenant budgets that replace TenantQuota.
	TenantOverrides map[string]fleet.Quota
	// Engine selects the execution backend every join runs on: nil is
	// the in-process engine; a cluster coordinator's Engine ships
	// partition joins to remote worker processes. Measured wire counters
	// of distributed runs surface as the sjoind_cluster_* metrics.
	Engine spatialjoin.Engine

	// TraceRing bounds how many completed join traces are retained for
	// GET /v1/joins/{id}/trace; older ones are evicted FIFO. Default
	// obs.DefaultRingSize (64).
	TraceRing int
	// TelemSampleEvery starts a background loop sampling service gauges
	// (queue depth, in-flight, plan cache, runtime) into the telemetry
	// rollup store. 0 disables the loop; join-driven series are recorded
	// either way.
	TelemSampleEvery time.Duration
	// TelemFlushEvery is how often the durable service appends a
	// telemetry snapshot to the record log so rollup history survives
	// restart. Default 2s; ignored without DataDir.
	TelemFlushEvery time.Duration
	// StragglerThreshold is the anomaly detector's straggler-ratio
	// trigger (max/median task time). Default 4.
	StragglerThreshold float64
	// SLOObjective is the per-tenant availability objective in (0, 1).
	// Default 0.995.
	SLOObjective float64

	// DataDir, when set, makes the service durable: dataset and stream
	// mutations are logged to an append-only record log under this
	// directory before they commit, datasets are materialised as
	// columnar files, and Open recovers the full state from checkpoint
	// plus log tail. Empty keeps the service purely in-memory.
	DataDir string
	// Fsync syncs the log after every append (crash-durable acks).
	// Without it, acknowledged records survive process crashes but not
	// host crashes between checkpoints.
	Fsync bool
	// CheckpointEvery triggers periodic checkpoints; 0 disables the
	// loop (checkpoints then happen only via Checkpoint or the admin
	// endpoint). Ignored without DataDir.
	CheckpointEvery time.Duration
	// Logf receives durability-layer notes (recovery, skipped corrupt
	// checkpoints); nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 32
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.MaxCollect <= 0 {
		c.MaxCollect = 10000
	}
	if c.TelemFlushEvery <= 0 {
		c.TelemFlushEvery = 2 * time.Second
	}
	return c
}

// ErrOverloaded is returned when the admission queue is full.
var ErrOverloaded = errors.New("service: queue full, try again later")

// ErrDraining is returned once Drain has started.
var ErrDraining = errors.New("service: draining, not accepting new work")

// TenantQuotaError reports a join rejected by per-tenant admission; the
// HTTP layer maps it to 429 with a Retry-After of RetryAfter rounded up
// to whole seconds.
type TenantQuotaError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *TenantQuotaError) Error() string {
	return fmt.Sprintf("service: tenant %q over quota, retry in %v", e.Tenant, e.RetryAfter.Round(time.Millisecond))
}

// Service is the long-running join service.
type Service struct {
	cfg      Config
	Registry *Registry
	Metrics  *Metrics

	// geo is the geometry (non-point) dataset store; see geo.go.
	geo geoRegistry

	cache    *planCache
	slots    chan struct{}
	draining atomic.Bool
	quotas   *fleet.Quotas // nil when per-tenant admission is off

	streamMu   sync.Mutex
	streams    map[string]*streamState
	streamsSeq uint64         // log position of the last stream create/delete
	ttlLoops   sync.WaitGroup // one per running stream expiry loop

	traces *obs.Ring[joinTrace]

	// store is the durable backing store (nil without Config.DataDir).
	store    *dstore.Store
	ckptStop chan struct{}
	ckptDone chan struct{}

	// Telem is the continuous-telemetry hub: rollup series, per-tenant
	// SLOs, and the anomaly event log (see internal/telem).
	Telem      *telem.Hub
	tflushStop chan struct{}
	tflushDone chan struct{}
	// lastTelemFlush dedups no-op snapshot appends; only the flush
	// loop (and Close, after stopping it) touch it.
	lastTelemFlush []byte
}

// joinTrace is one retained join trace.
type joinTrace struct {
	algorithm string
	tracer    *spatialjoin.Tracer
}

// New builds a service.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	s := &Service{
		cfg:      cfg,
		Registry: NewRegistry(m),
		Metrics:  m,
		cache:    newPlanCache(cfg.PlanCacheSize, m),
		slots:    make(chan struct{}, cfg.MaxConcurrent),
		streams:  map[string]*streamState{},
		traces:   obs.NewRing[joinTrace](cfg.TraceRing),
	}
	s.geo.m = map[string]*geoDataset{}
	if !cfg.TenantQuota.IsZero() || len(cfg.TenantOverrides) > 0 {
		s.quotas = fleet.NewQuotas(cfg.TenantQuota, cfg.TenantOverrides)
	}
	s.Telem = telem.NewHub(telem.Config{
		SLO:      telem.SLOConfig{Objective: cfg.SLOObjective},
		Detector: telem.DetectorConfig{StragglerRatio: cfg.StragglerThreshold},
	})
	if cfg.TelemSampleEvery > 0 {
		s.Telem.Start(cfg.TelemSampleEvery, s.collectTelem)
	}
	return s
}

// collectTelem is the periodic gauge sampler feeding the rollup store
// from the metric registry's gauges.
func (s *Service) collectTelem(sample func(name, key string, v float64)) {
	sample("queue_depth", "", float64(s.Metrics.QueueDepth.Value()))
	sample("in_flight", "", float64(s.Metrics.InFlight.Value()))
	sample("plan_cache_entries", "", float64(s.Metrics.PlanCacheEntries.Value()))
	sample("datasets", "", float64(s.Metrics.Datasets.Value()))
	rs := telem.ReadRuntime()
	sample("goroutines", "", float64(rs.Goroutines))
	sample("heap_alloc_bytes", "", float64(rs.HeapAllocBytes))
}

// StartDrain flips the service into draining mode: /healthz turns 503
// and new join work is rejected; in-flight work continues.
func (s *Service) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (s *Service) Draining() bool { return s.draining.Load() }

// InFlight returns the number of joins currently executing.
func (s *Service) InFlight() int64 { return s.Metrics.InFlight.Value() }

// acquire admits one join into the bounded pool, waiting for a slot
// until ctx expires. Per-tenant admission runs first: a noisy tenant
// burns its own token bucket and is 429ed while other tenants keep
// their access to the global queue. It returns a release func on
// success.
func (s *Service) acquire(ctx context.Context, tenant string) (func(), error) {
	if s.draining.Load() {
		s.Metrics.Rejected.Inc("draining", tenant)
		return nil, ErrDraining
	}
	if ok, retry := s.quotas.Allow(tenant); !ok {
		s.Metrics.Rejected.Inc("tenant_quota", tenant)
		return nil, &TenantQuotaError{Tenant: tenant, RetryAfter: retry}
	}
	if q := s.Metrics.QueueDepth.Add(1); q > int64(s.cfg.MaxQueue) {
		s.Metrics.QueueDepth.Add(-1)
		s.Metrics.Rejected.Inc("queue_full", tenant)
		return nil, ErrOverloaded
	}
	t0 := time.Now()
	defer func() {
		s.Metrics.QueueDepth.Add(-1)
		s.Metrics.QueueWait.Observe(time.Since(t0).Seconds())
	}()
	select {
	case s.slots <- struct{}{}:
		s.Metrics.InFlight.Add(1)
		return func() {
			s.Metrics.InFlight.Add(-1)
			<-s.slots
		}, nil
	case <-ctx.Done():
		s.Metrics.Rejected.Inc("timeout", tenant)
		return nil, ctx.Err()
	}
}

// JoinRequest is one join query against registered datasets.
type JoinRequest struct {
	R, S      string  // dataset names (both required)
	Tenant    string  // requesting tenant ("" is the anonymous tenant)
	Eps       float64 // distance threshold (required)
	Algorithm spatialjoin.Algorithm

	Workers        int
	Partitions     int
	SampleFraction float64
	Seed           int64
	UseLPT         bool
	GridRes        float64

	Collect bool // materialise pairs (capped at Config.MaxCollect)
	Limit   int  // cap on returned pairs; 0 means Config.MaxCollect

	Timeout time.Duration // per-request; 0 means Config.DefaultTimeout
}

// JoinResponse reports one join execution.
type JoinResponse struct {
	Algorithm   string  `json:"algorithm"`
	Results     int64   `json:"results"`
	Checksum    string  `json:"checksum"` // hex, order-independent over pair ids
	Selectivity float64 `json:"selectivity"`

	PlanCache   string `json:"plan_cache"` // "hit" or "miss"
	ReplicatedR int64  `json:"replicated_r"`
	ReplicatedS int64  `json:"replicated_s"`

	BuildMillis float64 `json:"build_ms"` // plan construction (0 on cache hits)
	ProbeMillis float64 `json:"probe_ms"` // partition-level joins

	Pairs     [][2]int64 `json:"pairs,omitempty"` // when Collect, capped at Limit
	Truncated bool       `json:"truncated,omitempty"`

	// JoinID names this execution's retained trace: fetch the span tree
	// and skew diagnostics at GET /v1/joins/{JoinID}/trace.
	JoinID int64 `json:"join_id"`
}

// JoinTraceResponse is the payload of GET /v1/joins/{id}/trace: the
// join's full span tree plus skew diagnostics derived from it.
type JoinTraceResponse struct {
	JoinID    int64                    `json:"join_id"`
	Algorithm string                   `json:"algorithm"`
	TraceID   string                   `json:"trace_id"` // hex
	Spans     int                      `json:"spans"`
	Dropped   int                      `json:"dropped,omitempty"` // spans lost to the tracer's cap
	Skew      spatialjoin.SkewReport   `json:"skew"`
	Tree      []*spatialjoin.TraceNode `json:"tree"`
}

// Trace returns the retained trace of a completed join, or false when
// the id is unknown or was evicted from the ring.
func (s *Service) Trace(id int64) (*JoinTraceResponse, bool) {
	jt, ok := s.traces.Get(id)
	if !ok {
		return nil, false
	}
	return &JoinTraceResponse{
		JoinID:    id,
		Algorithm: jt.algorithm,
		TraceID:   fmt.Sprintf("%016x", uint64(jt.tracer.TraceID())),
		Spans:     jt.tracer.Len(),
		Dropped:   jt.tracer.Dropped(),
		Skew:      jt.tracer.Skew(),
		Tree:      jt.tracer.Tree(),
	}, true
}

// TraceChrome writes a retained trace in Chrome trace-event format; it
// reports false when the id is unknown or evicted.
func (s *Service) TraceChrome(id int64, w io.Writer) (bool, error) {
	jt, ok := s.traces.Get(id)
	if !ok {
		return false, nil
	}
	return true, jt.tracer.WriteChromeTrace(w)
}

// observeTrace feeds a finished join's trace into the latency, task and
// shuffle histograms plus the telemetry hub (per-tenant latency series
// and SLO, per-(R,S,eps) skew series and anomaly rules), retains the
// trace in the ring, and returns its join id.
func (s *Service) observeTrace(algorithm, tenant, rname, sname string, eps float64, tr *spatialjoin.Tracer, total time.Duration) int64 {
	s.Metrics.JoinLatency.Observe(total.Seconds())
	for _, sp := range tr.Spans() {
		if sp.Name == obs.SpanTask && sp.Done > sp.Start {
			s.Metrics.TaskDuration.Observe(float64(sp.Done-sp.Start) / 1e9)
		}
	}
	sk := tr.Skew()
	if sk.ShuffleBytes > 0 {
		s.Metrics.ShuffleBytes.Observe(float64(sk.ShuffleBytes))
	}

	now := time.Now()
	s.Telem.ObserveJoin(tenant, now, total.Seconds())
	var replBytes int64
	for _, b := range sk.ReplicationBytes {
		replBytes += b
	}
	for _, b := range sk.ReplicationBytesByClass {
		replBytes += b
	}
	s.Telem.ObserveSkew(tenant, telem.JoinKey(rname, sname, eps), now, sk.StragglerRatio, replBytes, sk.ShuffleBytes)

	return s.traces.Put(joinTrace{algorithm: algorithm, tracer: tr})
}

// Join executes one in-memory point join through the shared pipeline.
func (s *Service) Join(ctx context.Context, req JoinRequest) (*JoinResponse, error) {
	return run(ctx, s, req.query(req.Algorithm.String()), s.pointEngine(req))
}

// query is the request as the pipeline reads it.
func (req JoinRequest) query(algorithm string) query {
	return query{
		r: req.R, s: req.S, tenant: req.Tenant, eps: req.Eps, algorithm: algorithm,
		collect: req.Collect, limit: req.Limit, timeout: req.Timeout,
	}
}

// pointEngine is the in-memory point engine: a plan-cache lookup (a
// single-flight build over spatialjoin.Prepare on a miss, reusing the
// datasets' cached samples), then a probe of the plan.
func (s *Service) pointEngine(req JoinRequest) engine[JoinResponse] {
	opt := spatialjoin.Options{
		Eps:            req.Eps,
		Algorithm:      req.Algorithm,
		Workers:        req.Workers,
		Partitions:     req.Partitions,
		SampleFraction: req.SampleFraction,
		Seed:           req.Seed,
		UseLPT:         req.UseLPT,
		GridRes:        req.GridRes,
	}
	// Sedona's R-tree kernel has no wire description; it always runs
	// in-process, even when the daemon serves a cluster.
	if req.Algorithm != spatialjoin.SedonaLike {
		opt.Engine = s.cfg.Engine
	}
	var rd, sd *dataset
	var plan *spatialjoin.PreparedJoin
	var rep *spatialjoin.Report
	return engine[JoinResponse]{
		validate: func() (err error) {
			if rd, err = s.Registry.Get(req.R); err != nil {
				return err
			}
			if sd, err = s.Registry.Get(req.S); err != nil {
				return err
			}
			return opt.Validate()
		},
		prepare: func(j *joinRun) (bool, func(), error) {
			key := PlanKey{
				R: rd.Name, S: sd.Name, RRev: rd.Rev, SRev: sd.Rev, RGen: rd.Gen, SGen: sd.Gen,
				Eps: req.Eps, Algorithm: req.Algorithm,
				Workers: req.Workers, Partitions: req.Partitions,
				SampleFraction: req.SampleFraction, Seed: req.Seed,
				UseLPT: req.UseLPT, GridRes: req.GridRes,
			}
			p, hit, release, err := s.cache.GetOrBuild(key, func() (cachedPlan, error) {
				o := opt
				// The building request's tracer captures the construction
				// phases (plan, replicate, shuffle); cache hits skip them.
				o.Trace, o.TraceParent = j.tr, j.root.SpanID()
				return spatialjoin.Prepare(rd.Tuples, sd.Tuples, o)
			})
			plan, _ = p.(*spatialjoin.PreparedJoin)
			return hit, release, err
		},
		execute: func(ctx context.Context, j *joinRun) (err error) {
			// The request context rides into the engine, so a deadline that
			// fires mid-join cancels the in-flight partition work.
			rep, err = plan.ExecuteContext(ctx, spatialjoin.ExecOptions{
				Collect: req.Collect, Trace: j.tr, TraceParent: j.root.SpanID(),
			})
			if err != nil {
				return err
			}
			j.label, j.results, j.checksum, j.found = rep.Algorithm.String(), rep.Results, rep.Checksum, rep.Pairs
			j.replicated, j.cluster = plan.Replicated(), rep.Cluster
			return nil
		},
		respond: func(j *joinRun) *JoinResponse {
			resp := joinResponse(j, rd, sd)
			resp.ReplicatedR, resp.ReplicatedS = rep.ReplicatedR, rep.ReplicatedS
			return resp
		},
	}
}

// joinResponse is the response the point and disk engines share.
func joinResponse(run *joinRun, rd, sd *dataset) *JoinResponse {
	resp := &JoinResponse{
		Algorithm:   run.label,
		Results:     run.results,
		Checksum:    fmt.Sprintf("%016x", run.checksum),
		Selectivity: float64(run.results) / (float64(len(rd.Tuples)) * float64(len(sd.Tuples))),
		PlanCache:   "miss",
		BuildMillis: run.build.Seconds() * 1e3,
		ProbeMillis: run.probe.Seconds() * 1e3,
		Pairs:       run.pairs,
		Truncated:   run.truncated,
		JoinID:      run.id,
	}
	if run.hit {
		resp.PlanCache = "hit"
	}
	return resp
}
