package experiments

import (
	"fmt"

	"spatialjoin"
	"spatialjoin/internal/agreements"
	"spatialjoin/internal/core"
	"spatialjoin/internal/costmodel"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/sample"
	"spatialjoin/internal/tuple"
)

// Extension experiments: ablations beyond the paper's artefacts, probing
// the design choices DESIGN.md calls out. They are registered behind the
// paper's ids so `cmd/experiments -all` includes them.

// Extensions returns the registry of extension experiments.
func Extensions() []Experiment {
	return []Experiment{
		{"xsample", "ablation: effect of the sampling fraction on adaptive replication", XSample},
		{"xpolicy", "ablation: LPiB tie-break fallback vs strict LPiB vs DIFF", XPolicy},
		{"xcostmodel", "extension: analytical cost model predictions vs measured runs", XCostModel},
		{"xobjects", "extension: polyline/polygon join, adaptive vs universal, varying object extent", XObjects},
		{"xorder", "ablation: Algorithm 1 edge traversal order (paper vs weight-only vs index)", XOrder},
		{"xrefpoint", "ablation: duplicate handling — agreements vs dedup-after vs reference point", XRefPoint},
		{"xkernel", "ablation: local join kernel — sweep-x vs best-axis vs R-tree vs nested loop", XKernel},
		{"xbroadcast", "extension: graph-of-agreements broadcast cost vs its shuffle savings", XBroadcast},
		{"xresolution", "extension: cost-model grid-resolution planning vs measured join work", XResolution},
	}
}

// SampleSweep is the sampling-fraction ablation grid; the paper fixes 3%.
var SampleSweep = []float64{0.01, 0.03, 0.1, 0.3, 1.0}

// XSample measures how the sampling fraction drives adaptive replication
// quality: sparse samples leave agreement ties that default conservatively
// and erode the adaptive advantage (the paper fixes 3% at 100M-point
// scale, where 3% is still dense per cell).
func XSample(sc Scale) []*Table {
	t := &Table{
		ID:    "xsample",
		Title: "adaptive replication vs sampling fraction",
		Columns: []string{
			"combination", "metric",
		},
	}
	for _, f := range SampleSweep {
		t.Columns = append(t.Columns, fmt.Sprintf("%.0f%%", f*100))
	}
	for _, combo := range Combos()[:2] {
		rs := combo.R(sc.N)
		ss := combo.S(sc.N)
		uniBest := minI64(
			sc.run(rs, ss, sc.baseOptions(DefaultEps, spatialjoin.PBSMUniR)).Replicated(),
			sc.run(rs, ss, sc.baseOptions(DefaultEps, spatialjoin.PBSMUniS)).Replicated(),
		)
		replRow := []string{combo.Name, "LPiB repl"}
		gainRow := []string{combo.Name, "best-UNI/LPiB"}
		for _, f := range SampleSweep {
			opt := sc.baseOptions(DefaultEps, spatialjoin.AdaptiveLPiB)
			opt.SampleFraction = f
			rep := sc.run(rs, ss, opt)
			replRow = append(replRow, fmtCount(rep.Replicated()))
			gainRow = append(gainRow, fmtRatio(uniBest, rep.Replicated()))
		}
		t.Rows = append(t.Rows, replRow, gainRow)
	}
	return []*Table{t}
}

// XPolicy compares the agreement policies, including the strict LPiB
// without the sampled-totals tie-break fallback, at the default 3%
// sampling fraction.
func XPolicy(sc Scale) []*Table {
	t := &Table{
		ID:    "xpolicy",
		Title: "agreement policies under 3% sampling",
		Columns: []string{
			"combination", "LPiB", "LPiB-strict", "DIFF", "strict/LPiB",
		},
	}
	for _, combo := range Combos() {
		rs := combo.R(sc.N)
		ss := combo.S(sc.N)
		repl := func(pol agreements.Policy) int64 {
			res := mustCore(rs, ss, core.Config{
				Eps: DefaultEps, Policy: pol,
				Workers: sc.Workers, Partitions: sc.Partitions, Seed: sc.Seed,
			})
			return res.Replicated()
		}
		lpib := repl(agreements.LPiB)
		strict := repl(agreements.LPiBStrict)
		diff := repl(agreements.DIFF)
		t.Rows = append(t.Rows, []string{
			combo.Name,
			fmtCount(lpib), fmtCount(strict), fmtCount(diff),
			fmtRatio(strict, lpib),
		})
	}
	return []*Table{t}
}

// XCostModel validates the analytical cost model: predicted versus
// measured replication and shuffle volume for the adaptive and universal
// strategies on the synthetic combo.
func XCostModel(sc Scale) []*Table {
	t := &Table{
		ID:    "xcostmodel",
		Title: "cost model predictions vs measurements (S1xS2)",
		Columns: []string{
			"strategy", "pred repl", "meas repl", "pred shuffle", "meas shuffle",
		},
	}
	rs := Combos()[0].R(sc.N)
	ss := Combos()[0].S(sc.N)
	bounds, err := core.DataBounds(nil, rs, ss)
	if err != nil {
		panic(fmt.Sprintf("xcostmodel: %v", err))
	}
	g := grid.New(bounds, DefaultEps, 2)
	const fraction = sample.DefaultFraction
	st := grid.NewStats(g)
	st.AddAll(tuple.R, sample.Bernoulli(rs, fraction, sc.Seed))
	st.AddAll(tuple.S, sample.Bernoulli(ss, fraction, sc.Seed+1))
	const tupleBytes = 24

	gr := agreements.Build(st, agreements.LPiB)
	adPred := costmodel.Adaptive(gr, st, fraction, tupleBytes)
	adMeas := sc.run(rs, ss, sc.baseOptions(DefaultEps, spatialjoin.AdaptiveLPiB))
	t.Rows = append(t.Rows, []string{
		"LPiB",
		fmt.Sprintf("%.0f", adPred.Replicated), fmtCount(adMeas.Replicated()),
		fmtBytes(int64(adPred.ShuffledBytes)), fmtBytes(adMeas.ShuffledBytes),
	})
	for _, v := range []struct {
		name string
		set  tuple.Set
		algo spatialjoin.Algorithm
	}{
		{"UNI(R)", tuple.R, spatialjoin.PBSMUniR},
		{"UNI(S)", tuple.S, spatialjoin.PBSMUniS},
	} {
		pred := costmodel.Universal(st, v.set, fraction, tupleBytes)
		meas := sc.run(rs, ss, sc.baseOptions(DefaultEps, v.algo))
		t.Rows = append(t.Rows, []string{
			v.name,
			fmt.Sprintf("%.0f", pred.Replicated), fmtCount(meas.Replicated()),
			fmtBytes(int64(pred.ShuffledBytes)), fmtBytes(meas.ShuffledBytes),
		})
	}
	return []*Table{t}
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
