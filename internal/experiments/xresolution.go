package experiments

import (
	"fmt"
	"math"

	"spatialjoin"
	"spatialjoin/internal/agreements"
	"spatialjoin/internal/core"
	"spatialjoin/internal/costmodel"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/sample"
	"spatialjoin/internal/tuple"
)

// XResolution validates the resolution planner against measurement: the
// cost model ranks the Figure 15 grid resolutions without running any
// join, and the ranking must agree with the measured join-work metric
// (candidate pairs) that drives Figure 15's conclusion that 2ε is best.
func XResolution(sc Scale) []*Table {
	t := &Table{
		ID:    "xresolution",
		Title: "cost-model resolution planning vs measured join work (S1xS2, LPiB)",
		Columns: []string{
			"resolution", "predicted cost", "measured cand. pairs", "measured time",
		},
	}
	rs := Combos()[0].R(sc.N)
	ss := Combos()[0].S(sc.N)
	bounds, err := core.DataBounds(nil, rs, ss)
	if err != nil {
		panic(fmt.Sprintf("xresolution: %v", err))
	}
	choice, err := planResolution(bounds, rs, ss, DefaultEps, 0, sc.Seed, 24, ResSweep)
	if err != nil {
		panic(fmt.Sprintf("xresolution: %v", err))
	}
	for _, res := range ResSweep {
		opt := sc.baseOptions(DefaultEps, spatialjoin.AdaptiveLPiB)
		opt.GridRes = res
		rep := sc.run(rs, ss, opt)
		marker := ""
		if res == choice.res {
			marker = " <- planned"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%geps%s", res, marker),
			fmt.Sprintf("%.3g", choice.costs[res]),
			fmtCount(rep.CandidatePairs),
			fmtDur(rep.TotalTime()),
		})
	}
	return []*Table{t}
}

// Resolution ranking converts the cost model's mixed units into one
// scalar cost, predicted nanoseconds, with rough single-machine
// constants; they only need to be correct relative to each other.
const (
	nsPerCandidatePair = 5 // one refine comparison
	nsPerShuffledByte  = 1 // one byte through the shuffle (serialisation + network amortised)
)

// resolutionChoice is the outcome of planResolution.
type resolutionChoice struct {
	res   float64             // chosen multiplier (cell side res·ε)
	costs map[float64]float64 // predicted ns per candidate resolution
}

// planResolution picks the grid resolution multiplier (from candidates,
// each >= 2) that minimises the predicted adaptive join cost — the
// "proper tuning of the number of grid partitions" of the parallel
// in-memory join literature, driven by the cost model instead of trial
// runs. An empty candidate list defaults to {2, 3, 4, 5} (the paper's
// Figure 15 sweep). The pick drives no join: XResolution sets it beside
// the measured join work of every candidate.
func planResolution(bounds geom.Rect, rs, ss []tuple.Tuple, eps, fraction float64, seed int64, tupleBytes int, candidates []float64) (*resolutionChoice, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("xresolution: eps must be positive, got %v", eps)
	}
	if len(candidates) == 0 {
		candidates = []float64{2, 3, 4, 5}
	}
	if fraction <= 0 {
		fraction = sample.DefaultFraction
	}
	smpR := sample.Bernoulli(rs, fraction, seed)
	smpS := sample.Bernoulli(ss, fraction, seed+1)

	choice := &resolutionChoice{costs: make(map[float64]float64, len(candidates))}
	bestCost := math.Inf(1)
	for _, res := range candidates {
		if res < 2 {
			return nil, fmt.Errorf("xresolution: resolution %v violates the l >= 2ε requirement", res)
		}
		g := grid.New(bounds, eps, res)
		st := grid.NewStats(g)
		st.AddAll(tuple.R, smpR)
		st.AddAll(tuple.S, smpS)
		gr := agreements.Build(st, agreements.LPiB)
		p := costmodel.Adaptive(gr, st, fraction, tupleBytes)
		cost := p.CandidatePairs*nsPerCandidatePair + p.ShuffledBytes*nsPerShuffledByte
		choice.costs[res] = cost
		if cost < bestCost {
			bestCost = cost
			choice.res = res
		}
	}
	return choice, nil
}
