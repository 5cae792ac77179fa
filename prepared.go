package spatialjoin

import (
	"context"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/core"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/sedonasim"
)

// ExecOptions configures one execution of a PreparedJoin.
type ExecOptions struct {
	// Eps optionally re-sweeps the plan with a smaller threshold. The
	// plan's replication co-locates every pair within its ε in exactly
	// one common cell, so any ε' in (0, plan ε] remains correct and
	// duplicate-free. Zero means the plan's own ε.
	Eps float64
	// Collect materialises the result pairs in Report.Pairs.
	Collect bool
	// Trace records this execution's spans (tasks, supplementary join,
	// dedup) under TraceParent. A prepared plan serving many probes gets
	// a per-probe tracer here; nil falls back to the tracer the plan was
	// built with, so one-shot joins yield a single tree.
	Trace       *Tracer
	TraceParent SpanID
}

// PreparedJoin is a reusable execution plan for an ε-distance join: the
// sampled statistics, grid, resolved graph of agreements (adaptive
// algorithms), cell placement, and the already-replicated,
// partition-bucketed tuples of both inputs. Construction is paid once by
// Prepare; Execute then runs only the partition-level joins and is safe
// to call repeatedly and concurrently — the shape a long-running join
// service caches and serves probes from.
type PreparedJoin struct {
	algorithm Algorithm
	plan      *core.Plan
}

// Prepare builds a reusable plan for the join R ⋈ε S. Every algorithm is
// preparable; AutoPlanned is prepared, and reported, as AdaptiveLPiB.
func Prepare(rs, ss []Tuple, opt Options) (*PreparedJoin, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return prepare(rs, ss, opt, false)
}

// config translates the fields every join shares into the orchestrator's
// configuration; the algorithm-specific ones are added by the caller.
func (o Options) config() core.Config {
	return core.Config{
		Eps:            o.Eps,
		SampleFraction: o.SampleFraction,
		Seed:           o.Seed,
		Workers:        o.Workers,
		Partitions:     o.Partitions,
		Collect:        o.Collect,
		Bounds:         o.Bounds,
		PoolSize:       o.PoolSize,
		Engine:         o.Engine,
		Tracer:         o.Trace,
		TraceParent:    o.TraceParent,
	}
}

// prepare builds the plan of validated options: the algorithm becomes a
// scheme (or, for the adaptive family, a policy) of the one orchestrator.
func prepare(rs, ss []Tuple, opt Options, selfJoin bool) (*PreparedJoin, error) {
	cfg := opt.config()
	cfg.Res, cfg.UseLPT = opt.GridRes, opt.UseLPT
	cfg.SelfFilter = selfJoin
	algo := opt.Algorithm
	switch opt.Algorithm {
	case AdaptiveDIFF:
		cfg.Policy = agreements.DIFF
	case AdaptiveSimpleDedup:
		cfg.Simple = true
	case PBSMUniR:
		cfg.Scheme = pbsm.Scheme(pbsm.UniR)
	case PBSMUniS:
		cfg.Scheme = pbsm.Scheme(pbsm.UniS)
	case PBSMEpsGrid:
		cfg.Scheme = pbsm.Scheme(pbsm.EpsGrid)
	case PBSMClone:
		cfg.Scheme = pbsm.Scheme(pbsm.Clone)
	case SedonaLike:
		cfg.Scheme = sedonasim.Scheme
	case AutoPlanned:
		// The cost model never predicts a universal choice below LPiB's
		// shuffle (DESIGN.md), so auto is LPiB.
		algo = AdaptiveLPiB
	}
	plan, err := core.BuildPlan(rs, ss, cfg)
	if err != nil {
		return nil, err
	}
	return &PreparedJoin{algorithm: algo, plan: plan}, nil
}

// Algorithm returns the concrete strategy of the plan (AdaptiveLPiB for
// AutoPlanned).
func (p *PreparedJoin) Algorithm() Algorithm { return p.algorithm }

// Eps returns the distance threshold the plan was prepared for — the
// upper bound on ExecOptions.Eps.
func (p *PreparedJoin) Eps() float64 { return p.plan.Eps() }

// FootprintBytes returns the wire size of the partition-bucketed tuples
// the plan retains — what a plan cache should account for.
func (p *PreparedJoin) FootprintBytes() int64 { return p.plan.FootprintBytes() }

// Replicated returns the replicated objects the plan serves per Execute.
func (p *PreparedJoin) Replicated() int64 { return p.plan.Replicated() }

// Execute runs the partition-level joins of the plan and reports the
// outcome. Construction metrics (sampling, build, map, shuffle) are
// carried into every Report; only the join phase is re-run.
func (p *PreparedJoin) Execute(e ExecOptions) (*Report, error) {
	return p.ExecuteContext(context.Background(), e)
}

// ExecuteContext is Execute with cancellation: when ctx expires the
// engine abandons unstarted partitions and returns ctx's error — the hook
// a serving layer uses to make request deadlines cancel in-flight joins.
func (p *PreparedJoin) ExecuteContext(ctx context.Context, e ExecOptions) (*Report, error) {
	res, err := p.plan.ExecuteContext(ctx, core.Exec{
		Eps: e.Eps, Collect: e.Collect,
		Tracer: e.Trace, TraceParent: e.TraceParent,
	})
	if err != nil {
		return nil, err
	}
	return report(p.algorithm, res.Metrics, res.Pairs), nil
}
