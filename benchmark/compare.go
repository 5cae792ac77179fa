package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// spreadOf is the distance between the quartiles of v as a share of its
// median — the run-to-run spread the acceptance check uses. A single
// run has none.
func spreadOf(v []float64) float64 {
	if len(v) < 2 || median(v) == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// compareLogs applies the bounds of BENCHMARK.json to two result logs
// (baseline a, candidate b) and prints one row per workload and
// end-to-end metric:
//
//	ok          b's median is no worse than a's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  the runs of a or b spread wider than the bound, so the
//	            medians cannot tell
//
// It reports whether any row regressed.
func compareLogs(w io.Writer, spec *benchSpec, aPath, bPath string) (bool, error) {
	a, err := readLog(aPath)
	if err != nil {
		return false, err
	}
	b, err := readLog(bPath)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "%-18s %-18s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "a", "b", "worse", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s/%s is missing from one of the logs", wl.Name, m.Name)
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(spreadOf(va), spreadOf(vb))
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%-18s %-18s %12.4f %12.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, ma, mb, worse*100, spread*100, m.Bound*100, verdict)
		}
	}
	return regressed, nil
}

// readLog groups the untraced runs of a result log: workload → metric →
// one value per run.
func readLog(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var e logEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if e.Trace != 0 {
			continue
		}
		if out[e.Workload] == nil {
			out[e.Workload] = map[string][]float64{}
		}
		for name, m := range e.Result.Metrics {
			out[e.Workload][name] = append(out[e.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}
