// The join pipeline: every join the service runs — in-memory point,
// disk or geometry — goes through run, which owns each step they share:
// the default deadline and collect cap, validation before admission,
// global and tenant admission, the tracer and root span, plan-cache
// accounting, cancellation, pair truncation, metrics, trace retention,
// the tenant SLO and planner history. An engine supplies only what is
// its own (validate, prepare, execute, respond); run never asks which
// engine it is serving.

package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"spatialjoin"
	"spatialjoin/internal/obs"
)

// query is what the pipeline reads of a request, whichever engine
// serves it.
type query struct {
	r, s      string // dataset names
	tenant    string
	eps       float64
	algorithm string // the root span's algorithm attribute
	collect   bool
	limit     int           // pairs kept when collecting; 0 is Config.MaxCollect
	timeout   time.Duration // 0 is Config.DefaultTimeout
}

// engine is one kind of join. validate runs before admission, so a bad
// request never takes a slot; prepare and execute run on the goroutine
// that holds the slot; respond runs once the pipeline has accounted for
// the run. prepare obtains the plan under j's root span — from the plan
// cache, reporting whether that was a hit, or built for this request —
// and returns the func that releases it once execute is done; execute
// fills in j's results.
type engine[R any] struct {
	validate func() error
	prepare  func(j *joinRun) (hit bool, release func(), err error)
	execute  func(ctx context.Context, j *joinRun) error
	respond  func(j *joinRun) *R
}

// joinRun is one request in flight through the pipeline.
type joinRun struct {
	tr    *spatialjoin.Tracer
	root  *obs.Span
	limit int // pairs a collecting join keeps

	hit          bool
	build, probe time.Duration

	// Filled in by execute.
	label      string // algorithm name of the retained trace
	results    int64
	checksum   uint64
	found      []spatialjoin.Pair // when collecting; run truncates them
	replicated int64              // replicated objects the execution served
	cluster    spatialjoin.ClusterMetrics

	pairs     [][2]int64 // the kept pairs when collecting
	truncated bool
	id        int64 // join id of the retained trace
}

// run serves one join request through engine e.
func run[R any](ctx context.Context, s *Service, q query, e engine[R]) (_ *R, err error) {
	// Every failed request, a 429 or an unknown dataset included, counts
	// against the tenant's SLO; successes count in observeTrace.
	defer func() {
		if err != nil {
			s.Telem.ObserveJoinError(q.tenant, time.Now())
		}
	}()
	if q.timeout <= 0 {
		q.timeout = s.cfg.DefaultTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, q.timeout)
	defer cancel()
	if err := e.validate(); err != nil {
		return nil, err
	}
	release, err := s.acquire(ctx, q.tenant)
	if err != nil {
		return nil, err
	}

	// Every join is traced; the tracer is bounded (span cap) and cheap
	// relative to the join itself, and it feeds the task/shuffle
	// histograms and the /v1/joins/{id}/trace endpoint.
	j := &joinRun{tr: spatialjoin.NewTracer(), limit: q.limit}
	if j.limit <= 0 || j.limit > s.cfg.MaxCollect {
		j.limit = s.cfg.MaxCollect
	}
	j.root = j.tr.Start(0, obs.SpanJoin)
	j.root.SetStr("algorithm", q.algorithm).SetStr("r", q.r).SetStr("s", q.s)

	// Prepare and execute run on a goroutine that holds the slot, so the
	// request answers its deadline even mid-join. An abandoned join
	// finishes in the background and only then releases its plan and its
	// slot: the pool stays honest about CPU use, and a plan evicted
	// meanwhile is freed after its last user. The slot is released before
	// the outcome is sent, so a returned join no longer counts in flight.
	done := make(chan error, 1)
	go func() {
		err := prepareAndExecute(ctx, s, e, j)
		release()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			return nil, err
		}
	case <-ctx.Done():
		s.Metrics.Rejected.Inc("timeout", q.tenant)
		return nil, ctx.Err()
	}

	if q.collect {
		n := min(len(j.found), j.limit)
		j.truncated = len(j.found) > n
		j.pairs = make([][2]int64, n)
		for i, p := range j.found[:n] {
			j.pairs[i] = [2]int64{p.RID, p.SID}
		}
	}
	s.Metrics.Probe.Observe(j.probe.Seconds())
	s.Metrics.JoinResults.Add(j.results, q.tenant)
	s.Metrics.ReplicatedServed.Add(j.replicated)
	s.Metrics.ObserveCluster(j.cluster)
	j.root.End()
	j.id = s.observeTrace(j.label, q.tenant, q.r, q.s, q.eps, j.tr, j.build+j.probe)
	// Planner history for the (R, S, eps) key, best-effort: a failed
	// append never fails the join that produced the report.
	if s.store != nil {
		if err := s.store.AppendSkew(q.r, q.s, q.eps, j.tr.Skew()); err != nil && s.cfg.Logf != nil {
			s.cfg.Logf("service: persisting skew report: %v", err)
		}
	}
	return e.respond(j), nil
}

// prepareAndExecute is the part of run that holds the slot. It counts
// the plan-cache hit or miss prepare reports, and a miss's build time.
func prepareAndExecute[R any](ctx context.Context, s *Service, e engine[R], j *joinRun) error {
	t0 := time.Now()
	hit, release, err := e.prepare(j)
	if err != nil {
		return err
	}
	defer release()
	if j.hit = hit; hit {
		s.Metrics.PlanCacheHits.Inc()
	} else {
		j.build = time.Since(t0)
		s.Metrics.PlanCacheMisses.Inc()
		s.Metrics.PlanBuild.Observe(j.build.Seconds())
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	t0 = time.Now()
	err = e.execute(ctx, j)
	j.probe = time.Since(t0)
	return err
}

// joinHandler serves one JSON join endpoint: it decodes the body into a
// W and hands it to join with the request's context and tenant; collect
// is false on the count endpoints, which never materialise pairs.
func joinHandler[W, R any](collect bool, join func(ctx context.Context, tenant string, wire *W, collect bool) (*R, error)) func(http.ResponseWriter, *http.Request) (int, error) {
	return func(w http.ResponseWriter, r *http.Request) (int, error) {
		var wire W
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&wire); err != nil {
			return http.StatusBadRequest, fmt.Errorf("service: bad join request: %w", err)
		}
		resp, err := join(r.Context(), r.Header.Get("X-Tenant"), &wire, collect)
		if err != nil {
			return joinErrorCode(err), err
		}
		return writeJSON(w, http.StatusOK, resp)
	}
}
