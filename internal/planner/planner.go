// Package planner chooses a join strategy from sampled statistics before
// any data moves: it evaluates the analytical cost model of
// internal/costmodel for the adaptive assignment and both universal
// replication choices, and picks the one with the least predicted
// shuffle volume. It is the natural application of the cost model the
// paper lists as future work — replication decisions become a (tiny)
// query optimisation problem.
package planner

import (
	"fmt"
	"math"
	"time"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/core"
	"spatialjoin/internal/costmodel"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/sample"
	"spatialjoin/internal/tuple"
)

// Strategy is a join strategy the planner can select.
type Strategy uint8

const (
	// Adaptive is agreement-based replication (LPiB).
	Adaptive Strategy = iota
	// UniversalR is PBSM replicating R.
	UniversalR
	// UniversalS is PBSM replicating S.
	UniversalS
)

// String names the strategy.
func (s Strategy) String() string {
	return [...]string{"adaptive", "UNI(R)", "UNI(S)"}[s]
}

// Choice is the planner's decision with its supporting predictions.
type Choice struct {
	Strategy    Strategy
	Predictions map[Strategy]costmodel.Prediction
}

// Plan costs the three strategies on sampled statistics and the LPiB
// graph of agreements built from them, and picks the one with the least
// predicted shuffle volume — the cost that matters on network-bound
// clusters, the paper's setting. fraction is the rate st was sampled
// at; tupleBytes is the wire size of one tuple (24 for payload-free
// points).
func Plan(gr *agreements.Graph, st *grid.Stats, fraction float64, tupleBytes int) *Choice {
	preds := map[Strategy]costmodel.Prediction{
		Adaptive:   costmodel.Adaptive(gr, st, fraction, tupleBytes),
		UniversalR: costmodel.Universal(st, tuple.R, fraction, tupleBytes),
		UniversalS: costmodel.Universal(st, tuple.S, fraction, tupleBytes),
	}

	best := Adaptive
	for _, s := range []Strategy{UniversalR, UniversalS} {
		if preds[s].ShuffledBytes < preds[best].ShuffledBytes {
			best = s
		}
	}
	return &Choice{Strategy: best, Predictions: preds}
}

// Auto is the planner as a scheme of the core orchestrator: it samples
// once, builds the LPiB graph, records its Choice in *out, and continues
// the build with the chosen strategy — adaptive replication on the
// statistics and graph it just costed, or a universal PBSM scheme.
func Auto(out *Choice) core.Scheme {
	return func(in core.Input, spec *dpe.Spec, p *core.Plan) error {
		st, err := core.SampleStats(in, p)
		if err != nil {
			return err
		}
		start := time.Now()
		gr := agreements.Build(st, agreements.LPiB)
		tupleBytes := 24
		if len(in.R) > 0 {
			tupleBytes = in.R[0].SerializedSize()
		}
		*out = *Plan(gr, st, in.SampleFraction, tupleBytes)
		p.BuildTime = time.Since(start)
		in.Span.SetStr("planned", out.Strategy.String())
		switch out.Strategy {
		case UniversalR:
			return pbsm.Scheme(pbsm.UniR)(in, spec, p)
		case UniversalS:
			return pbsm.Scheme(pbsm.UniS)(in, spec, p)
		}
		core.Adaptive(in, spec, p, st, gr)
		return nil
	}
}

// Resolution ranking converts the cost model's mixed units into one
// scalar cost, predicted nanoseconds, with rough single-machine
// constants; they only need to be correct relative to each other.
const (
	nsPerCandidatePair = 5 // one refine comparison
	nsPerShuffledByte  = 1 // one byte through the shuffle (serialisation + network amortised)
)

// ResolutionChoice is the outcome of PlanResolution.
type ResolutionChoice struct {
	Res   float64             // chosen multiplier (cell side Res·ε)
	Costs map[float64]float64 // predicted ns per candidate resolution
}

// PlanResolution picks the grid resolution multiplier (from candidates,
// each >= 2) that minimises the predicted adaptive join cost — the
// "proper tuning of the number of grid partitions" of the parallel
// in-memory join literature, driven by the cost model instead of trial
// runs. An empty candidate list defaults to {2, 3, 4, 5} (the paper's
// Figure 15 sweep).
func PlanResolution(bounds geom.Rect, rs, ss []tuple.Tuple, eps, fraction float64, seed int64, tupleBytes int, candidates []float64) (*ResolutionChoice, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("planner: eps must be positive, got %v", eps)
	}
	if len(candidates) == 0 {
		candidates = []float64{2, 3, 4, 5}
	}
	if fraction <= 0 {
		fraction = sample.DefaultFraction
	}
	smpR := sample.Bernoulli(rs, fraction, seed)
	smpS := sample.Bernoulli(ss, fraction, seed+1)

	choice := &ResolutionChoice{Costs: make(map[float64]float64, len(candidates))}
	bestCost := math.Inf(1)
	for _, res := range candidates {
		if res < 2 {
			return nil, fmt.Errorf("planner: resolution %v violates the l >= 2ε requirement", res)
		}
		g := grid.New(bounds, eps, res)
		st := grid.NewStats(g)
		st.AddAll(tuple.R, smpR)
		st.AddAll(tuple.S, smpS)
		gr := agreements.Build(st, agreements.LPiB)
		p := costmodel.Adaptive(gr, st, fraction, tupleBytes)
		cost := p.CandidatePairs*nsPerCandidatePair + p.ShuffledBytes*nsPerShuffledByte
		choice.Costs[res] = cost
		if cost < bestCost {
			bestCost = cost
			choice.Res = res
		}
	}
	return choice, nil
}
