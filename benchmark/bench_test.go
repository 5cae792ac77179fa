package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// testScale shrinks every workload a hundredfold, keeping its points
// per cell, so all six run inside `go test ./...`.
const testScale = 0.01

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsAndNames runs every workload once, traced, in process,
// and checks the naming contract both ways: a run reports every
// end-to-end metric, never as zero; it reports no name BENCHMARK.json
// does not declare (report refuses those); and every declared per-layer
// metric is measured by at least one workload.
func TestWorkloadsAndNames(t *testing.T) {
	spec := testSpec(t)
	legal := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !legal.MatchString(m.Name) {
			t.Errorf("metric name %q uses characters outside letters, digits, _ . -", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q is declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(spec.Workloads) != 6 {
		t.Fatalf("BENCHMARK.json declares %d workloads, want 6", len(spec.Workloads))
	}

	measured := map[string]bool{}
	cfg := config{seed: 1, scale: testScale, outDir: t.TempDir()}
	for _, w := range spec.Workloads {
		if !legal.MatchString(w.Name) {
			t.Errorf("workload name %q uses characters outside letters, digits, _ . -", w.Name)
		}
		o, err := runWorkload(spec, w.Name, cfg, time.Second, true)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if o.failed != 0 || o.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.Name, o.failed, o.attempted)
		}
		for _, m := range spec.EndToEnd {
			if o.e2e[m.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", w.Name, m.Name, o.e2e[m.Name])
			}
		}
		if len(o.e2e) != len(spec.EndToEnd) {
			t.Errorf("%s: measured %d end-to-end metrics, BENCHMARK.json declares %d", w.Name, len(o.e2e), len(spec.EndToEnd))
		}
		var buf bytes.Buffer
		if err := report(&buf, spec, o); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result object: %v", w.Name, err)
		}
		if len(res.Metrics) != len(spec.PerLayer) {
			t.Errorf("%s: traced result carries %d metrics, want all %d per-layer ones", w.Name, len(res.Metrics), len(spec.PerLayer))
		}
		for name, v := range o.layer {
			if v != 0 {
				measured[name] = true
			}
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}
	// Counters that are zero on a healthy run cannot prove they are wired
	// by being non-zero; everything else must be.
	healthyZero := map[string]bool{
		"service.rejected": true, "cluster.retries": true, "cluster.speculative_launched": true,
		"twolayer.fallback_tiles": true, "stream.zero_delta_batches": true,
		"colsweep.allocs_per_op": true,
	}
	for _, m := range spec.PerLayer {
		if !measured[m.Name] && !healthyZero[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measured it", m.Name)
		}
	}
}

// TestCountsFollowTheSeed checks that the paper's count metrics are a
// function of the seed alone: identical on a second run, different on
// another seed.
func TestCountsFollowTheSeed(t *testing.T) {
	spec := testSpec(t)
	dir := t.TempDir()
	counts := func(seed int64) [3]float64 {
		o, err := runWorkload(spec, "skew-batch", config{seed: seed, scale: testScale, outDir: dir}, 100*time.Millisecond, true)
		if err != nil {
			t.Fatal(err)
		}
		return [3]float64{o.layer["core.pairs"], o.layer["core.replicated_objects"], o.layer["core.shuffle_bytes"]}
	}
	a, again, other := counts(1), counts(1), counts(2)
	if a != again {
		t.Errorf("seed 1 gave pairs/replicated/shuffle %v, then %v", a, again)
	}
	for i, name := range []string{"core.pairs", "core.replicated_objects", "core.shuffle_bytes"} {
		if a[i] == 0 || a[i] == other[i] {
			t.Errorf("%s is %v on seed 1 and %v on seed 2, want different non-zero counts", name, a[i], other[i])
		}
	}
}

// TestWrongAnswerCountsAsFailed corrupts each workload's oracle and
// expects the run to count failures.
func TestWrongAnswerCountsAsFailed(t *testing.T) {
	spec := testSpec(t)
	for _, w := range spec.Workloads {
		o, err := runWorkload(spec, w.Name, config{seed: 1, scale: testScale, corrupt: true}, 100*time.Millisecond, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if o.failed == 0 {
			t.Errorf("%s: a corrupted oracle left failed at 0 of %d", w.Name, o.attempted)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := testSpec(t)
	dir := t.TempDir()
	write := func(name string, scale func(metric string, run int) float64) string {
		path := filepath.Join(dir, name)
		var buf bytes.Buffer
		for _, w := range spec.Workloads {
			for run := 0; run < 4; run++ {
				e := logEntry{Workload: w.Name, Seed: int64(run), Result: result{Correct: true, Metrics: map[string]metricValue{}}}
				for _, m := range spec.EndToEnd {
					e.Result.Metrics[m.Name] = metricValue{Value: 100 * scale(m.Name, run), Unit: m.Unit}
				}
				line, _ := json.Marshal(e)
				buf.Write(append(line, '\n'))
			}
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", func(string, int) float64 { return 1 })
	slower := write("b.json", func(m string, _ int) float64 {
		if m == "op_p50_ms" {
			return 1.5
		}
		return 1
	})
	noisy := write("c.json", func(m string, run int) float64 {
		if m == "op_p50_ms" {
			return 1 + float64(run)
		}
		return 1
	})
	var out bytes.Buffer
	if regressed, err := compareLogs(&out, spec, base, base); err != nil || regressed {
		t.Errorf("a log against itself: regressed=%v err=%v", regressed, err)
	}
	out.Reset()
	if regressed, err := compareLogs(&out, spec, base, slower); err != nil || !regressed {
		t.Errorf("op_p50_ms +50%%: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if regressed, err := compareLogs(&out, spec, base, noisy); err != nil || regressed || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
}
