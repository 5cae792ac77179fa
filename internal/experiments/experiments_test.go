package experiments

import (
	"math"
	"strings"
	"testing"

	"spatialjoin"
	"spatialjoin/internal/agreements"
)

// tinyScale keeps the full-suite test fast.
func tinyScale() Scale { return Scale{N: 4000, Workers: 4} }

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1b", "table1", "fig10", "fig11", "fig12", "table4", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18", "table5", "table6", "table7",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry holds %d experiments, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if reg[i].Run == nil || reg[i].Description == "" {
			t.Errorf("registry[%d] incomplete", i)
		}
	}
	if _, ok := Find("fig13"); !ok {
		t.Error("Find(fig13) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) succeeded")
	}
}

// Table 1 must reproduce the paper's numbers exactly: replicating R costs
// 15/4/10/12 per cell (12 replicated objects, total cost 41); replicating
// S costs 6/18/10/8 (13 replicated, total 42).
func TestTable1MatchesPaper(t *testing.T) {
	tables := Table1(Scale{})
	if len(tables) != 2 {
		t.Fatalf("Table1 produced %d tables", len(tables))
	}
	type expect struct {
		costs      map[string]string
		replicated string
		total      string
	}
	wants := []expect{
		{map[string]string{"A": "15", "B": "4", "C": "10", "D": "12"}, "12", "41"},
		{map[string]string{"A": "6", "B": "18", "C": "10", "D": "8"}, "13", "42"},
	}
	for i, tb := range tables {
		want := wants[i]
		for _, row := range tb.Rows {
			cell := row[0]
			if cell == "total" {
				if row[3] != want.replicated {
					t.Errorf("table %d: total replicated = %s, want %s", i, row[3], want.replicated)
				}
				if row[4] != want.total {
					t.Errorf("table %d: total cost = %s, want %s", i, row[4], want.total)
				}
				continue
			}
			if got := row[4]; got != want.costs[cell] {
				t.Errorf("table %d cell %s: cost = %s, want %s", i, cell, got, want.costs[cell])
			}
		}
	}
}

func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep is slow")
	}
	sc := tinyScale()
	for _, e := range FullRegistry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(sc)
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range tables {
				if tb.ID == "" || tb.Title == "" || len(tb.Columns) == 0 || len(tb.Rows) == 0 {
					t.Fatalf("table %q incomplete: %+v", tb.ID, tb)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Columns) {
						t.Fatalf("table %q: row width %d != %d columns", tb.ID, len(row), len(tb.Columns))
					}
				}
				out := tb.String()
				if !strings.Contains(out, tb.ID) {
					t.Fatalf("rendered table missing id: %s", out)
				}
			}
		})
	}
}

// paperScale is the reduced, seeded scale of TestPaperShapes: 20,000
// points per set, 4 workers, one repetition. Every quantity it checks is
// a count, so the thresholds below repeat exactly on any host.
func paperScale() Scale { return Scale{N: 20_000, Workers: 4, Reps: 1} }

// TestPaperShapes gates the paper's count claims at paperScale. Each
// threshold was set from a measurement at that scale (quoted next to
// it) with a margin; EXPERIMENTS.md ("Gated shapes") records the claims
// that do not hold at this scale and are therefore not gated.
func TestPaperShapes(t *testing.T) {
	sc := paperScale()
	claims := []struct {
		name  string
		check func(t *testing.T, sc Scale)
	}{
		{"fig1b/best-uni-over-lpib", checkFig1b},
		{"fig10/eps-grid-most-adaptive-least", checkFig10},
		{"fig11/remote-read-order", checkFig11},
		{"fig15/candidates-rise-with-resolution", checkFig15},
		{"table6/dedup-removes-duplicates", checkTable6},
		{"table7/lpt-lowers-max-partition-cost", checkTable7},
	}
	for _, c := range claims {
		t.Run(c.name, func(t *testing.T) { c.check(t, sc) })
	}
}

// Fig 1b: universal replication (the better of UNI(R) and UNI(S))
// replicates several times more objects than LPiB on every combination.
// Measured at paperScale: S1xS2 8.2x, R1xS1 18.0x, R2xR1 4.2x.
func checkFig1b(t *testing.T, sc Scale) {
	want := map[string]float64{"S1xS2": 6, "R1xS1": 14, "R2xR1": 3.2}
	for _, combo := range Combos() {
		rs, ss := combo.R(sc.N), combo.S(sc.N)
		lpib := sc.run(rs, ss, sc.baseOptions(DefaultEps, spatialjoin.AdaptiveLPiB)).Replicated()
		uniR := sc.run(rs, ss, sc.baseOptions(DefaultEps, spatialjoin.PBSMUniR)).Replicated()
		uniS := sc.run(rs, ss, sc.baseOptions(DefaultEps, spatialjoin.PBSMUniS)).Replicated()
		factor := float64(min(uniR, uniS)) / float64(lpib)
		t.Logf("%s: LPiB %d, UNI(R) %d, UNI(S) %d, best-UNI/LPiB %.2fx", combo.Name, lpib, uniR, uniS, factor)
		if factor < want[combo.Name] {
			t.Errorf("%s: best-UNI/LPiB = %.2fx, want >= %gx", combo.Name, factor, want[combo.Name])
		}
	}
}

// Fig 10: at every ε of the sweep, ε-grid replicates the most and LPiB
// and DIFF the least of the six chart algorithms. Measured at
// paperScale: ε-grid is >= 2.5x the next algorithm, and the runner-up
// to LPiB/DIFF (Sedona at S1xS2 ε=0.375) is 1.43x above the larger of
// the two — on this seed: over sample seeds 0-11 the Sedona/LPiB ratio
// there clears 1.2x on 5 of 12 (EXPERIMENTS.md).
func checkFig10(t *testing.T, sc Scale) {
	eachEps(t, sc, func(t *testing.T, combo string, eps float64, m map[spatialjoin.Algorithm]int64) {
		adaptive := max(m[spatialjoin.AdaptiveLPiB], m[spatialjoin.AdaptiveDIFF])
		var rest int64 = math.MaxInt64 // least among the non-adaptive four
		var nextGrid int64             // most among all but ε-grid
		for algo, v := range m {
			if algo != spatialjoin.AdaptiveLPiB && algo != spatialjoin.AdaptiveDIFF {
				rest = min(rest, v)
			}
			if algo != spatialjoin.PBSMEpsGrid {
				nextGrid = max(nextGrid, v)
			}
		}
		if f := float64(m[spatialjoin.PBSMEpsGrid]) / float64(nextGrid); f < 2 {
			t.Errorf("%s ε=%g: ε-grid replicates %.2fx the next algorithm, want >= 2x (%v)", combo, eps, f, m)
		}
		if f := float64(rest) / float64(adaptive); f < 1.2 {
			t.Errorf("%s ε=%g: least non-adaptive replication is %.2fx LPiB/DIFF's, want >= 1.2x (%v)", combo, eps, f, m)
		}
	}, func(r *spatialjoin.Report) int64 { return r.Replicated() })
}

// Fig 11: shuffle remote reads order LPiB/DIFF < UNI(R)/UNI(S) < ε-grid
// at every ε. Measured at paperScale: UNI reads >= 1.86x LPiB/DIFF's,
// ε-grid >= 1.88x UNI's.
func checkFig11(t *testing.T, sc Scale) {
	eachEps(t, sc, func(t *testing.T, combo string, eps float64, m map[spatialjoin.Algorithm]int64) {
		adaptive := max(m[spatialjoin.AdaptiveLPiB], m[spatialjoin.AdaptiveDIFF])
		uniLo := min(m[spatialjoin.PBSMUniR], m[spatialjoin.PBSMUniS])
		uniHi := max(m[spatialjoin.PBSMUniR], m[spatialjoin.PBSMUniS])
		if f := float64(uniLo) / float64(adaptive); f < 1.5 {
			t.Errorf("%s ε=%g: UNI remote reads are %.2fx LPiB/DIFF's, want >= 1.5x (%v)", combo, eps, f, m)
		}
		if f := float64(m[spatialjoin.PBSMEpsGrid]) / float64(uniHi); f < 1.5 {
			t.Errorf("%s ε=%g: ε-grid remote reads are %.2fx UNI's, want >= 1.5x (%v)", combo, eps, f, m)
		}
	}, func(r *spatialjoin.Report) int64 { return r.ShuffleRemoteBytes })
}

// eachEps hands check one metric of every chart algorithm at each ε of
// Fig 10/11's sweep, for both sweep combinations.
func eachEps(t *testing.T, sc Scale, check func(t *testing.T, combo string, eps float64, m map[spatialjoin.Algorithm]int64), metric func(*spatialjoin.Report) int64) {
	for _, combo := range sweepCombos() {
		byEps := map[float64]map[spatialjoin.Algorithm]int64{}
		for _, c := range epsSweep(sc, combo) {
			if byEps[c.eps] == nil {
				byEps[c.eps] = map[spatialjoin.Algorithm]int64{}
			}
			byEps[c.eps][c.algo] = metric(c.rep)
		}
		for _, eps := range EpsSweep {
			check(t, combo.Name, eps, byEps[eps])
		}
	}
}

// Fig 15: candidate pairs Σ|R_c|·|S_c| rise strictly from a 2ε to a 5ε
// grid for LPiB and DIFF on S1xS2. Measured at paperScale: the smallest
// step is LPiB 3ε → 4ε at 1.29x.
func checkFig15(t *testing.T, sc Scale) {
	rs, ss := Combos()[0].R(sc.N), Combos()[0].S(sc.N)
	for _, algo := range []spatialjoin.Algorithm{spatialjoin.AdaptiveLPiB, spatialjoin.AdaptiveDIFF} {
		var prev int64
		for _, res := range ResSweep {
			opt := sc.baseOptions(DefaultEps, algo)
			opt.GridRes = res
			cand := sc.run(rs, ss, opt).CandidatePairs
			t.Logf("%s %gε: %d candidate pairs", algo, res, cand)
			if prev > 0 && float64(cand) < 1.03*float64(prev) {
				t.Errorf("%s %gε: %d candidate pairs, want >= 1.03x the previous %d", algo, res, cand, prev)
			}
			prev = cand
		}
	}
}

// Table 6: the non-duplicate-free variant feeds duplicates into its
// distinct() pass and, after it, reports LPiB's exact answer. Measured
// at paperScale: 314 duplicates on 28,481 results (1.10%).
func checkTable6(t *testing.T, sc Scale) {
	rs, ss := Combos()[0].R(sc.N), Combos()[0].S(sc.N)
	dupFree, withDedup := table6Runs(sc, rs, ss, agreements.LPiB)
	dups := withDedup.DedupInput - withDedup.Results
	t.Logf("LPiB: %d results, dedup input %d (%d duplicates)", dupFree.Results, withDedup.DedupInput, dups)
	if float64(dups) < 0.005*float64(withDedup.Results) {
		t.Errorf("dedup variant removed %d duplicates of %d results, want >= 0.5%%", dups, withDedup.Results)
	}
	if withDedup.Results != dupFree.Results || withDedup.Checksum != dupFree.Checksum {
		t.Errorf("dedup variant answers %d/%x, duplicate-free LPiB %d/%x",
			withDedup.Results, withDedup.Checksum, dupFree.Results, dupFree.Checksum)
	}
}

// Table 7: LPT placement lowers the largest per-partition Σ|R_c|·|S_c|
// against hash placement on R2xR1. Measured at paperScale: LPiB 2.7%
// (3,058 → 2,976), DIFF 6.0% (3,856 → 3,623) — on this seed: over
// sample seeds 0-19 the LPiB gain clears 2% on 7 of 20 (EXPERIMENTS.md).
func checkTable7(t *testing.T, sc Scale) {
	rs, ss := Combos()[2].R(sc.N), Combos()[2].S(sc.N)
	for _, algo := range []spatialjoin.Algorithm{spatialjoin.AdaptiveLPiB, spatialjoin.AdaptiveDIFF} {
		opt := sc.baseOptions(DefaultEps, algo)
		hash := sc.run(rs, ss, opt).MaxPartitionCost
		opt.UseLPT = true
		lpt := sc.run(rs, ss, opt).MaxPartitionCost
		gain := 1 - float64(lpt)/float64(hash)
		t.Logf("%s: max partition cost hash %d, LPT %d (%+.1f%%)", algo, hash, lpt, 100*gain)
		if gain < 0.02 {
			t.Errorf("%s: LPT lowers the max partition cost by %.1f%%, want >= 2%%", algo, 100*gain)
		}
	}
}

func TestTableString(t *testing.T) {
	tb := &Table{
		ID: "x", Title: "demo",
		Columns: []string{"a", "long-header"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tb.String()
	for _, want := range []string{"demo", "long-header", "333"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestScalesAreSane(t *testing.T) {
	d, q := DefaultScale(), QuickScale()
	if d.N <= q.N {
		t.Fatal("default scale should exceed quick scale")
	}
	if len(EpsSweep) != 4 || len(SizeSweep) != 5 || len(NodeSweep) != 5 || len(ResSweep) != 4 {
		t.Fatal("sweep lengths diverge from the paper")
	}
}
