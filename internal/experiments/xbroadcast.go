package experiments

import (
	"fmt"

	"spatialjoin"
)

// XBroadcast quantifies a cost the paper does not chart: the driver must
// broadcast the resolved graph of agreements to every worker (Algorithm
// 5, line 6), and its size grows with the grid — i.e. shrinks with ε.
// PBSM only ships the grid parameters (a few dozen bytes), so this is
// the admission price of adaptivity; the experiment shows it stays three
// orders of magnitude below the shuffle savings it buys. The broadcast
// is modelled (Report.BroadcastBytes, 3 bytes per quartet per worker):
// this repo's cluster coordinator maps and replicates itself, so no
// engine ships the graph.
func XBroadcast(sc Scale) []*Table {
	t := &Table{
		ID:    "xbroadcast",
		Title: "graph-of-agreements broadcast cost vs eps (S1xS2, LPiB)",
		Columns: []string{
			"eps", "grid cells", "broadcast", "shuffle saved vs UNI(R)",
		},
	}
	rs := Combos()[0].R(sc.N)
	ss := Combos()[0].S(sc.N)
	for _, eps := range EpsSweep {
		adaptive := sc.run(rs, ss, sc.baseOptions(eps, spatialjoin.AdaptiveLPiB))
		uni := sc.run(rs, ss, sc.baseOptions(eps, spatialjoin.PBSMUniR))
		saved := uni.ShuffledBytes - adaptive.ShuffledBytes
		// Grid cells from the world and resolution (2ε).
		w := spatialjoin.World()
		nx := int(w.Width()/(2*eps) + 0.999999)
		ny := int(w.Height()/(2*eps) + 0.999999)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", eps),
			fmt.Sprintf("%d", nx*ny),
			fmtBytes(adaptive.BroadcastBytes),
			fmtBytes(saved),
		})
	}
	return []*Table{t}
}
