package experiments

import (
	"fmt"
	"time"

	"spatialjoin"
	"spatialjoin/internal/tuple"
)

// tupleSizeSweep renders Figures 16-18: shuffle remote reads and
// execution time as the tuple size factor grows f0..f4, for one combo.
func tupleSizeSweep(sc Scale, combo Combo, figID string) []*Table {
	shuf := &Table{ID: figID + "a", Title: fmt.Sprintf("shuffle remote reads vs tuple size (%s)", combo.Name)}
	times := &Table{ID: figID + "b", Title: fmt.Sprintf("execution time vs tuple size (%s)", combo.Name)}
	for _, t := range []*Table{shuf, times} {
		t.Columns = []string{"algorithm"}
		for i := range tuple.Factors {
			t.Columns = append(t.Columns, tuple.FactorName(i))
		}
	}
	baseR := combo.R(sc.N)
	baseS := combo.S(sc.N)
	type rowset struct{ shuf, times []string }
	rows := map[spatialjoin.Algorithm]*rowset{}
	for _, algo := range ChartAlgorithms() {
		rows[algo] = &rowset{shuf: []string{algo.String()}, times: []string{algo.String()}}
	}
	for _, size := range tuple.Factors {
		rs := tuple.WithPayloads(baseR, size)
		ss := tuple.WithPayloads(baseS, size)
		for _, algo := range ChartAlgorithms() {
			rep := sc.run(rs, ss, sc.baseOptions(DefaultEps, algo))
			rows[algo].shuf = append(rows[algo].shuf, fmtBytes(rep.ShuffleRemoteBytes))
			rows[algo].times = append(rows[algo].times, fmtDur(rep.TotalTime()))
		}
	}
	for _, algo := range ChartAlgorithms() {
		shuf.Rows = append(shuf.Rows, rows[algo].shuf)
		times.Rows = append(times.Rows, rows[algo].times)
	}
	return []*Table{shuf, times}
}

// Fig16 reproduces Figure 16 (S1⋈S2).
func Fig16(sc Scale) []*Table { return tupleSizeSweep(sc, Combos()[0], "fig16") }

// Fig17 reproduces Figure 17 (R1⋈S1).
func Fig17(sc Scale) []*Table { return tupleSizeSweep(sc, Combos()[1], "fig17") }

// Fig18 reproduces Figure 18 (R2⋈R1).
func Fig18(sc Scale) []*Table { return tupleSizeSweep(sc, Combos()[2], "fig18") }

// Table5 reproduces Table 5: carrying the extra attributes through the
// join versus fetching them with two post-processing id-joins, for LPiB
// and DIFF at tuple size factor f1 on S1⋈S2.
func Table5(sc Scale) []*Table {
	t := &Table{
		ID:    "table5",
		Title: "extra attributes on join vs post-processing (S1xS2, f1)",
		Columns: []string{
			"method", "on join", "on post-processing", "post/on-join",
		},
	}
	payload := tuple.Factors[1]
	rsSlim := Combos()[0].R(sc.N)
	ssSlim := Combos()[0].S(sc.N)
	rsFat := tuple.WithPayloads(rsSlim, payload)
	ssFat := tuple.WithPayloads(ssSlim, payload)

	for _, algo := range []spatialjoin.Algorithm{spatialjoin.AdaptiveLPiB, spatialjoin.AdaptiveDIFF} {
		// Variant 1: attributes travel with the tuples through the join.
		onJoin := sc.run(rsFat, ssFat, sc.baseOptions(DefaultEps, algo)).TotalTime()

		// Variant 2: join slim tuples, then two id-joins fetch the
		// attributes of both sides into the result set.
		opt := sc.baseOptions(DefaultEps, algo)
		opt.Collect = true
		slim := sc.run(rsSlim, ssSlim, opt)
		postTime := slim.TotalTime() + enrichPairs(slim.Pairs, rsFat, ssFat, maxInt(sc.Workers, 1))

		t.Rows = append(t.Rows, []string{
			algo.String(),
			fmtDur(onJoin),
			fmtDur(postTime),
			fmt.Sprintf("%.1fx", float64(postTime)/float64(onJoin)),
		})
	}
	return []*Table{t}
}

// enrichPairs measures the post-processing step of Table 5: two
// hash joins on tuple ids that attach the non-spatial attributes of both
// inputs to every result pair, partitioned across workers like Spark's
// pair joins.
func enrichPairs(pairs []tuple.Pair, rs, ss []tuple.Tuple, workers int) time.Duration {
	start := time.Now()
	// Stage 1: join pairs with R on RID.
	rPayload := make(map[int64][]byte, len(rs))
	for _, r := range rs {
		rPayload[r.ID] = r.Payload
	}
	type enriched struct {
		pair     tuple.Pair
		rPayload []byte
		sPayload []byte
	}
	out := make([]enriched, len(pairs))
	parallelChunks(len(pairs), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = enriched{pair: pairs[i], rPayload: rPayload[pairs[i].RID]}
		}
	})
	// Stage 2: join with S on SID.
	sPayload := make(map[int64][]byte, len(ss))
	for _, s := range ss {
		sPayload[s.ID] = s.Payload
	}
	parallelChunks(len(out), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i].sPayload = sPayload[out[i].pair.SID]
		}
	})
	// The result set (with attributes) is what the join variant produced
	// directly; consume it so the compiler cannot elide the work.
	if len(out) > 0 && out[0].pair.RID < 0 {
		panic("unreachable")
	}
	return time.Since(start)
}

// parallelChunks runs fn over [0, n) split into worker chunks.
func parallelChunks(n, workers int, fn func(lo, hi int)) {
	if workers < 1 {
		workers = 1
	}
	done := make(chan struct{}, workers)
	chunk := (n + workers - 1) / workers
	started := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		started++
		go func(lo, hi int) {
			fn(lo, hi)
			done <- struct{}{}
		}(lo, hi)
	}
	for i := 0; i < started; i++ {
		<-done
	}
}
