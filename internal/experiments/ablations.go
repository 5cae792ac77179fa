package experiments

import (
	"fmt"

	"spatialjoin"
	"spatialjoin/internal/agreements"
	"spatialjoin/internal/core"
	"spatialjoin/internal/tuple"
)

// Table6 reproduces Table 6: the duplicate-free assignment versus the
// simplified (duplicate-producing) assignment followed by a parallel
// distinct() pass, for LPiB and DIFF on S1⋈S2.
func Table6(sc Scale) []*Table {
	t := &Table{
		ID:    "table6",
		Title: "duplicate-free vs non-duplicate-free with deduplication (S1xS2)",
		Columns: []string{
			"method", "duplicate-free", "dedup-after", "dedup/dup-free", "duplicates removed",
		},
	}
	rs := Combos()[0].R(sc.N)
	ss := Combos()[0].S(sc.N)
	for _, pol := range []agreements.Policy{agreements.LPiB, agreements.DIFF} {
		dupFree, withDedup := table6Runs(sc, rs, ss, pol)
		if dupFree.Results != withDedup.Results || dupFree.Checksum != withDedup.Checksum {
			panic(fmt.Sprintf("table6: variants disagree: %d vs %d results", dupFree.Results, withDedup.Results))
		}
		t.Rows = append(t.Rows, []string{
			pol.String(),
			fmtDur(dupFree.TotalTime()),
			fmtDur(withDedup.TotalTime()),
			fmt.Sprintf("%.1fx", float64(withDedup.TotalTime())/float64(dupFree.TotalTime())),
			fmtCount(withDedup.DedupInput - withDedup.Results),
		})
	}
	return []*Table{t}
}

// table6Runs joins rs and ss under pol twice: duplicate-free, and with
// the simplified assignment followed by the distinct() pass.
func table6Runs(sc Scale, rs, ss []tuple.Tuple, pol agreements.Policy) (dupFree, withDedup *core.Result) {
	cfg := core.Config{
		Eps:     DefaultEps,
		Policy:  pol,
		Workers: sc.Workers, Partitions: sc.Partitions,
		Seed: sc.Seed,
	}
	dupFree = mustCore(rs, ss, cfg)
	cfg.Simple = true
	return dupFree, mustCore(rs, ss, cfg)
}

func mustCore(rs, ss []tuple.Tuple, cfg core.Config) *core.Result {
	res, err := core.Join(rs, ss, cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return res
}

// Table7 reproduces Table 7: execution time of LPiB and DIFF with
// hash-based versus LPT assignment of cells to workers, for S1⋈S2 at x4
// size and R2⋈R1.
func Table7(sc Scale) []*Table {
	t := &Table{
		ID:    "table7",
		Title: "hash vs LPT assignment of cells to workers",
		Columns: []string{
			"workload", "method", "hash", "LPT", "LPT gain",
			"hash max-part", "LPT max-part", "balance gain",
		},
	}
	workloads := []struct {
		name   string
		rs, ss []tuple.Tuple
	}{
		{"S1xS2 x4", Combos()[0].R(4 * sc.N), Combos()[0].S(4 * sc.N)},
		{"R2xR1", Combos()[2].R(sc.N), Combos()[2].S(sc.N)},
	}
	for _, w := range workloads {
		for _, algo := range []spatialjoin.Algorithm{spatialjoin.AdaptiveLPiB, spatialjoin.AdaptiveDIFF} {
			opt := sc.baseOptions(DefaultEps, algo)
			hash := sc.run(w.rs, w.ss, opt)
			opt.UseLPT = true
			lptRep := sc.run(w.rs, w.ss, opt)
			gain := 1 - float64(lptRep.TotalTime())/float64(hash.TotalTime())
			// The wall-time gain is noise-prone at laptop scale; the
			// deterministic load-balance gain (largest per-partition
			// Σ|R_c|·|S_c|) shows LPT's effect directly.
			balance := 1 - float64(lptRep.MaxPartitionCost)/float64(hash.MaxPartitionCost)
			t.Rows = append(t.Rows, []string{
				w.name,
				algo.String(),
				fmtDur(hash.TotalTime()),
				fmtDur(lptRep.TotalTime()),
				fmt.Sprintf("%+.1f%%", gain*100),
				fmtCount(hash.MaxPartitionCost),
				fmtCount(lptRep.MaxPartitionCost),
				fmt.Sprintf("%+.1f%%", balance*100),
			})
		}
	}
	return []*Table{t}
}
