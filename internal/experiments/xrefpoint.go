package experiments

import (
	"spatialjoin"
)

// XRefPoint extends Table 6 into a three-way comparison of duplicate
// handling strategies on S1⋈S2:
//
//   - the paper's agreement-based duplicate-free assignment (LPiB),
//   - the simplified assignment followed by a parallel distinct() pass,
//   - clone join with the reference-point technique (both sets
//     replicated, pairs reported only by the midpoint's cell) — the
//     classical MASJ answer the related work cites.
//
// The adaptive assignment should dominate both on replication and time.
func XRefPoint(sc Scale) []*Table {
	t := &Table{
		ID:    "xrefpoint",
		Title: "duplicate handling: agreements vs dedup-after vs reference point (S1xS2)",
		Columns: []string{
			"strategy", "replicated", "shuffle remote", "time", "vs LPiB",
		},
	}
	rs := Combos()[0].R(sc.N)
	ss := Combos()[0].S(sc.N)

	strategies := []spatialjoin.Algorithm{
		spatialjoin.AdaptiveLPiB,
		spatialjoin.AdaptiveSimpleDedup,
		spatialjoin.PBSMClone,
	}
	var base *spatialjoin.Report
	for _, algo := range strategies {
		rep := sc.run(rs, ss, sc.baseOptions(DefaultEps, algo))
		if base == nil {
			base = rep
		} else if rep.Results != base.Results || rep.Checksum != base.Checksum {
			panic("xrefpoint: strategies disagree")
		}
		slowdown := float64(rep.TotalTime()) / float64(base.TotalTime())
		t.Rows = append(t.Rows, []string{
			algo.String(),
			fmtCount(rep.Replicated()),
			fmtBytes(rep.ShuffleRemoteBytes),
			fmtDur(rep.TotalTime()),
			fmtRatioF(slowdown),
		})
	}
	return []*Table{t}
}

func fmtRatioF(v float64) string {
	return fmtRatio(int64(v*1000), 1000)
}
