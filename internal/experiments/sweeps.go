package experiments

import (
	"fmt"

	"spatialjoin"
)

// epsCell is one measured configuration of the ε sweep.
type epsCell struct {
	algo spatialjoin.Algorithm
	eps  float64
	rep  *spatialjoin.Report
}

// epsSweepCache memoises the ε sweep per (scale, combo) so that Fig10,
// Fig11, Fig12 and Table4 — four views of the same runs — measure once.
// Experiments execute sequentially; no locking needed.
var epsSweepCache = map[string][]epsCell{}

// epsSweep measures every chart algorithm over the ε sweep for one combo.
func epsSweep(sc Scale, combo Combo) []epsCell {
	key := fmt.Sprintf("%s/%d/%d/%d/%d", combo.Name, sc.N, sc.Workers, sc.Partitions, sc.Seed)
	if cached, ok := epsSweepCache[key]; ok {
		return cached
	}
	rs := combo.R(sc.N)
	ss := combo.S(sc.N)
	var out []epsCell
	for _, eps := range EpsSweep {
		for _, algo := range ChartAlgorithms() {
			rep := sc.run(rs, ss, sc.baseOptions(eps, algo))
			out = append(out, epsCell{algo: algo, eps: eps, rep: rep})
		}
	}
	epsSweepCache[key] = out
	return out
}

// sweepCombos returns the two data set combinations of Figures 10-12.
func sweepCombos() []Combo { return Combos()[:2] } // S1xS2 and R1xS1

// epsSweepTable renders one metric of the sweep as a table with one row
// per algorithm and one column per ε.
func epsSweepTable(sc Scale, combo Combo, id, title string, metric func(*spatialjoin.Report) string) *Table {
	cells := epsSweep(sc, combo)
	t := &Table{ID: id, Title: fmt.Sprintf("%s (%s)", title, combo.Name)}
	t.Columns = []string{"algorithm"}
	for _, eps := range EpsSweep {
		t.Columns = append(t.Columns, fmt.Sprintf("eps=%g", eps))
	}
	for _, algo := range ChartAlgorithms() {
		row := []string{algo.String()}
		for _, eps := range EpsSweep {
			for _, c := range cells {
				if c.algo == algo && c.eps == eps {
					row = append(row, metric(c.rep))
				}
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig10 reproduces Figure 10: replicated objects vs ε, for S1⋈S2 (a) and
// R1⋈S1 (b).
func Fig10(sc Scale) []*Table {
	var out []*Table
	for i, combo := range sweepCombos() {
		out = append(out, epsSweepTable(sc, combo, fmt.Sprintf("fig10%c", 'a'+i),
			"replicated objects vs eps",
			func(r *spatialjoin.Report) string { return fmtCount(r.Replicated()) }))
	}
	return out
}

// Fig11 reproduces Figure 11: shuffle remote reads vs ε.
func Fig11(sc Scale) []*Table {
	var out []*Table
	for i, combo := range sweepCombos() {
		out = append(out, epsSweepTable(sc, combo, fmt.Sprintf("fig11%c", 'a'+i),
			"shuffle remote reads vs eps",
			func(r *spatialjoin.Report) string { return fmtBytes(r.ShuffleRemoteBytes) }))
	}
	return out
}

// Fig12 reproduces Figure 12: execution time vs ε.
func Fig12(sc Scale) []*Table {
	var out []*Table
	for i, combo := range sweepCombos() {
		out = append(out, epsSweepTable(sc, combo, fmt.Sprintf("fig12%c", 'a'+i),
			"execution time vs eps",
			func(r *spatialjoin.Report) string { return fmtDur(r.TotalTime()) }))
	}
	return out
}

// Fig1b reproduces Figure 1b: the relative overhead in replicated objects
// of PBSM (both universal choices) over adaptive replication, per data
// set combination.
func Fig1b(sc Scale) []*Table {
	t := &Table{
		ID:    "fig1b",
		Title: "relative replication overhead of PBSM over adaptive (LPiB)",
		Columns: []string{
			"combination", "LPiB repl", "UNI(R) repl", "UNI(S) repl",
			"UNI(R)/LPiB", "UNI(S)/LPiB", "best-UNI/LPiB",
		},
	}
	for _, combo := range Combos() {
		rs := combo.R(sc.N)
		ss := combo.S(sc.N)
		adaptive := sc.run(rs, ss, sc.baseOptions(DefaultEps, spatialjoin.AdaptiveLPiB))
		uniR := sc.run(rs, ss, sc.baseOptions(DefaultEps, spatialjoin.PBSMUniR))
		uniS := sc.run(rs, ss, sc.baseOptions(DefaultEps, spatialjoin.PBSMUniS))
		best := uniR.Replicated()
		if uniS.Replicated() < best {
			best = uniS.Replicated()
		}
		t.Rows = append(t.Rows, []string{
			combo.Name,
			fmtCount(adaptive.Replicated()),
			fmtCount(uniR.Replicated()),
			fmtCount(uniS.Replicated()),
			fmtRatio(uniR.Replicated(), adaptive.Replicated()),
			fmtRatio(uniS.Replicated(), adaptive.Replicated()),
			fmtRatio(best, adaptive.Replicated()),
		})
	}
	return []*Table{t}
}

// Table4 reproduces Table 4: join selectivity and result counts over the
// ε sweep (S1⋈S2 and R1⋈S1) and over the data size sweep (S1⋈S2).
func Table4(sc Scale) []*Table {
	var out []*Table
	for _, combo := range sweepCombos() {
		cells := epsSweep(sc, combo)
		t := &Table{
			ID:      "table4",
			Title:   fmt.Sprintf("selectivity vs eps (%s)", combo.Name),
			Columns: []string{"eps", "selectivity", "join results"},
		}
		for _, eps := range EpsSweep {
			for _, c := range cells {
				if c.algo == spatialjoin.AdaptiveLPiB && c.eps == eps {
					t.Rows = append(t.Rows, []string{
						fmt.Sprintf("%g", eps),
						fmtSel(c.rep.Selectivity(sc.N, sc.N)),
						fmtCount(c.rep.Results),
					})
				}
			}
		}
		out = append(out, t)
	}
	// Size sweep: selectivity should stay flat while results grow ~x².
	t := &Table{
		ID:      "table4",
		Title:   "selectivity vs data size (S1xS2)",
		Columns: []string{"size", "selectivity", "join results"},
	}
	for _, factor := range SizeSweep {
		n := sc.N * factor
		rep := sc.run(Combos()[0].R(n), Combos()[0].S(n), sc.baseOptions(DefaultEps, spatialjoin.AdaptiveLPiB))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("x%d", factor),
			fmtSel(rep.Selectivity(n, n)),
			fmtCount(rep.Results),
		})
	}
	return append(out, t)
}
