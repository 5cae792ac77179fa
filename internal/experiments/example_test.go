package experiments

import (
	"testing"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/replicate"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/tuple"
)

// exampleStats loads the running example's 16 points as exhaustive
// statistics (the "sample" is the full data set).
func exampleStats(t *testing.T) (*grid.Stats, *grid.Grid) {
	t.Helper()
	rs, ss, g := RunningExamplePoints()
	st := grid.NewStats(g)
	st.AddAll(tuple.R, rs)
	st.AddAll(tuple.S, ss)
	return st, g
}

// posOf returns the quartet position of the paper's cell letter within
// the central quartet (1, 1) of the running example grid.
// Layout: A = TL, B = TR, C = BR, D = BL.
func posOf(letter string) grid.Pos {
	return map[string]grid.Pos{"A": grid.TL, "B": grid.TR, "C": grid.BR, "D": grid.BL}[letter]
}

// Example 4.3 of the paper: between cells A and D, the replication area
// holds 2 S points (s3, s7) and 3 R points (r1, r7, r8), so LPiB chooses
// the agreement type α_S.
func TestPaperExample43LPiB(t *testing.T) {
	st, g := exampleStats(t)
	// A = cell (0,1), D = cell (0,0); direction A->D is South.
	aID := g.CellID(0, 1)
	dID := g.CellID(0, 0)
	if candR := st.Candidates(aID, grid.DirS, tuple.R) + st.Candidates(dID, grid.DirN, tuple.R); candR != 3 {
		t.Fatalf("R candidates between A and D = %d, want 3 (r1, r7, r8)", candR)
	}
	if candS := st.Candidates(aID, grid.DirS, tuple.S) + st.Candidates(dID, grid.DirN, tuple.S); candS != 2 {
		t.Fatalf("S candidates between A and D = %d, want 2 (s3, s7)", candS)
	}
	gr := agreements.Build(st, agreements.LPiB)
	if got := gr.Type(1, 1, posOf("A"), posOf("D")); got != tuple.S {
		t.Fatalf("LPiB agreement A-D = %v, want S (Example 4.3)", got)
	}
}

// Example 4.3 continued: DIFF considers cell A (|1-3| = 2) over cell D
// (|2-2| = 0) and picks A's minority set, R.
func TestPaperExample43DIFF(t *testing.T) {
	st, g := exampleStats(t)
	aStats := st.At(g.CellID(0, 1))
	if aStats.Total[tuple.R] != 1 || aStats.Total[tuple.S] != 3 {
		t.Fatalf("cell A totals = %v, want 1 R / 3 S", aStats.Total)
	}
	dStats := st.At(g.CellID(0, 0))
	if dStats.Total[tuple.R] != 2 || dStats.Total[tuple.S] != 2 {
		t.Fatalf("cell D totals = %v, want 2 R / 2 S", dStats.Total)
	}
	gr := agreements.Build(st, agreements.DIFF)
	if got := gr.Type(1, 1, posOf("A"), posOf("D")); got != tuple.R {
		t.Fatalf("DIFF agreement A-D = %v, want R (Example 4.3)", got)
	}
}

// Example 4.4: with the LPiB instantiation, edge e_BA has type α_R and
// weight 1·3 = 3 (one replicated R point r2 times three S points in A),
// and edge e_CB has type α_S and weight 1·3 = 3 (s5 times three R points
// in B).
func TestPaperExample44Weights(t *testing.T) {
	st, _ := exampleStats(t)
	sub := agreements.BuildQuartet(st, agreements.LPiB, agreements.OrderPaper, 1, 1)

	if got := sub.Type(posOf("B"), posOf("A")); got != tuple.R {
		t.Fatalf("agreement B-A = %v, want R", got)
	}
	if w := sub.Weight(posOf("B"), posOf("A")); w != 3 {
		t.Fatalf("w(e_BA) = %d, want 3 (Example 4.4)", w)
	}
	if got := sub.Type(posOf("C"), posOf("B")); got != tuple.S {
		t.Fatalf("agreement C-B = %v, want S", got)
	}
	if w := sub.Weight(posOf("C"), posOf("B")); w != 3 {
		t.Fatalf("w(e_CB) = %d, want 3 (Example 4.4)", w)
	}
}

// The motivation of Section 3.2, measured: on the running example the
// adaptive assignment must replicate fewer points than either universal
// choice (12 and 13 respectively) while producing the exact join result.
func TestRunningExampleAdaptiveBeatsUniversal(t *testing.T) {
	rs, ss, g := RunningExamplePoints()
	st := grid.NewStats(g)
	st.AddAll(tuple.R, rs)
	st.AddAll(tuple.S, ss)

	for _, pol := range []agreements.Policy{agreements.LPiB, agreements.DIFF} {
		gr := agreements.Build(st, pol)
		repl := 0
		perCell := make(map[int][2][]tuple.Tuple)
		assign := func(ts []tuple.Tuple, set tuple.Set) {
			var buf []int
			for _, tu := range ts {
				buf = replicate.Adaptive(gr, tu.Pt, set, buf[:0])
				repl += len(buf) - 1
				for _, id := range buf {
					pc := perCell[id]
					pc[set] = append(pc[set], tu)
					perCell[id] = pc
				}
			}
		}
		assign(rs, tuple.R)
		assign(ss, tuple.S)
		if repl >= 12 {
			t.Errorf("%v: adaptive replicated %d points, must beat universal R's 12", pol, repl)
		}

		// Exactness on the example.
		var got, want sweep.Counter
		for _, pc := range perCell {
			sweep.NestedLoop(pc[tuple.R], pc[tuple.S], g.Eps, got.Emit)
		}
		sweep.NestedLoop(rs, ss, g.Eps, want.Emit)
		if got.N != want.N || got.Checksum != want.Checksum {
			t.Errorf("%v: adaptive join on the running example: %d results, want %d", pol, got.N, want.N)
		}
		t.Logf("%v replicates %d points (vs 12 for UNI(R), 13 for UNI(S))", pol, repl)
	}
}
