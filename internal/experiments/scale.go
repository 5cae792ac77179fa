package experiments

import (
	"fmt"

	"spatialjoin"
)

// SizeSweep mirrors the paper's data size factors x1..x8.
var SizeSweep = []int{1, 2, 4, 6, 8}

// NodeSweep mirrors the paper's cluster sizes.
var NodeSweep = []int{4, 6, 8, 10, 12}

// ResSweep mirrors the paper's grid resolutions 2ε..5ε.
var ResSweep = []float64{2, 3, 4, 5}

// Fig13 reproduces Figure 13: replication (a), shuffled data (b) and
// execution time split into construction + join (c), as the S1⋈S2 data
// size grows x1..x8. The paper scales Spark partitions with the data; we
// scale reduce partitions likewise.
func Fig13(sc Scale) []*Table {
	repl := &Table{ID: "fig13a", Title: "replicated objects vs data size (S1xS2)"}
	shuf := &Table{ID: "fig13b", Title: "shuffle remote reads vs data size (S1xS2)"}
	times := &Table{ID: "fig13c", Title: "construction+join time vs data size (S1xS2)"}
	for _, t := range []*Table{repl, shuf} {
		t.Columns = []string{"algorithm"}
		for _, f := range SizeSweep {
			t.Columns = append(t.Columns, fmt.Sprintf("x%d", f))
		}
	}
	times.Columns = []string{"algorithm"}
	for _, f := range SizeSweep {
		times.Columns = append(times.Columns, fmt.Sprintf("x%d constr", f), fmt.Sprintf("x%d join", f))
	}

	type rowset struct{ repl, shuf, times []string }
	rows := map[spatialjoin.Algorithm]*rowset{}
	for _, algo := range ChartAlgorithms() {
		rows[algo] = &rowset{
			repl:  []string{algo.String()},
			shuf:  []string{algo.String()},
			times: []string{algo.String()},
		}
	}
	for _, factor := range SizeSweep {
		n := sc.N * factor
		rs := Combos()[0].R(n)
		ss := Combos()[0].S(n)
		for _, algo := range ChartAlgorithms() {
			opt := sc.baseOptions(DefaultEps, algo)
			// The paper grows Spark partitions with data size factors.
			if sc.Partitions == 0 {
				opt.Partitions = 8 * maxInt(sc.Workers, 1) * factor
			}
			rep := sc.run(rs, ss, opt)
			rows[algo].repl = append(rows[algo].repl, fmtCount(rep.Replicated()))
			rows[algo].shuf = append(rows[algo].shuf, fmtBytes(rep.ShuffleRemoteBytes))
			rows[algo].times = append(rows[algo].times,
				fmtDur(rep.ConstructionTime()), fmtDur(rep.JoinTime))
		}
	}
	for _, algo := range ChartAlgorithms() {
		repl.Rows = append(repl.Rows, rows[algo].repl)
		shuf.Rows = append(shuf.Rows, rows[algo].shuf)
		times.Rows = append(times.Rows, rows[algo].times)
	}
	return []*Table{repl, shuf, times}
}

// Fig14 reproduces Figure 14: execution time and shuffle remote reads as
// the number of nodes grows, S1⋈S2. The workers share the host's cores,
// so fig14a cannot show node scaling past them; fig14b's remote reads,
// a count, carry the figure's shape.
func Fig14(sc Scale) []*Table {
	timeT := &Table{ID: "fig14a", Title: "execution time vs nodes (S1xS2; workers share the host's cores, so this cannot show node scaling: fig14b carries the shape)"}
	shufT := &Table{ID: "fig14b", Title: "shuffle remote reads vs nodes (S1xS2)"}
	for _, t := range []*Table{timeT, shufT} {
		t.Columns = []string{"algorithm"}
		for _, w := range NodeSweep {
			t.Columns = append(t.Columns, fmt.Sprintf("%d nodes", w))
		}
	}
	rs := Combos()[0].R(sc.N)
	ss := Combos()[0].S(sc.N)
	for _, algo := range ChartAlgorithms() {
		timeRow := []string{algo.String()}
		shufRow := []string{algo.String()}
		for _, w := range NodeSweep {
			opt := sc.baseOptions(DefaultEps, algo)
			opt.Workers = w
			if sc.Partitions == 0 {
				opt.Partitions = 96 // the paper's fixed partition count
			}
			rep := sc.run(rs, ss, opt)
			timeRow = append(timeRow, fmtDur(rep.TotalTime()))
			shufRow = append(shufRow, fmtBytes(rep.ShuffleRemoteBytes))
		}
		timeT.Rows = append(timeT.Rows, timeRow)
		shufT.Rows = append(shufT.Rows, shufRow)
	}
	return []*Table{timeT, shufT}
}

// Fig15 reproduces Figure 15: execution time of LPiB and DIFF as the grid
// resolution varies from 2ε to 5ε, S1⋈S2.
func Fig15(sc Scale) []*Table {
	t := &Table{ID: "fig15", Title: "execution time vs grid resolution (S1xS2)"}
	t.Columns = []string{"algorithm", "metric"}
	for _, res := range ResSweep {
		t.Columns = append(t.Columns, fmt.Sprintf("%geps", res))
	}
	rs := Combos()[0].R(sc.N)
	ss := Combos()[0].S(sc.N)
	for _, algo := range []spatialjoin.Algorithm{spatialjoin.AdaptiveLPiB, spatialjoin.AdaptiveDIFF} {
		timeRow := []string{algo.String(), "time"}
		workRow := []string{algo.String(), "cand. pairs"}
		for _, res := range ResSweep {
			opt := sc.baseOptions(DefaultEps, algo)
			opt.GridRes = res
			rep := sc.run(rs, ss, opt)
			timeRow = append(timeRow, fmtDur(rep.TotalTime()))
			workRow = append(workRow, fmtCount(rep.CandidatePairs))
		}
		t.Rows = append(t.Rows, timeRow, workRow)
	}
	return []*Table{t}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
