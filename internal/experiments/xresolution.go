package experiments

import (
	"fmt"

	"spatialjoin"
	"spatialjoin/internal/core"
	"spatialjoin/internal/planner"
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
	choice, err := planner.PlanResolution(bounds, rs, ss, DefaultEps, 0, sc.Seed, 24, ResSweep)
	if err != nil {
		panic(fmt.Sprintf("xresolution: %v", err))
	}
	for _, res := range ResSweep {
		opt := sc.baseOptions(DefaultEps, spatialjoin.AdaptiveLPiB)
		opt.GridRes = res
		rep := sc.run(rs, ss, opt)
		marker := ""
		if res == choice.Res {
			marker = " <- planned"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%geps%s", res, marker),
			fmt.Sprintf("%.3g", choice.Costs[res]),
			fmtCount(rep.CandidatePairs),
			fmtDur(rep.TotalTime()),
		})
	}
	return []*Table{t}
}
