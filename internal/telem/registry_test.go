package telem

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestTelemRegistryHostileLabels drives labeled counters with hostile
// label values — tenants are client-chosen strings, so quotes,
// backslashes, newlines and separator bytes must all render as valid
// exposition lines and round-trip their counts.
func TestTelemRegistryHostileLabels(t *testing.T) {
	r := NewRegistry()
	requests := r.NewCounterVec("x_requests_total", "Requests by endpoint and code.", "endpoint", "code")
	rejected := r.NewCounterVec("x_rejected_total", "Rejected requests by reason and tenant.", "reason", "tenant")
	results := r.NewCounterVec("x_results_total", "Results by tenant.", "tenant")
	warm := r.NewCounter("x_warm_total", `Help with a back\slash`+"\nand a newline.")
	hostile := []string{
		`quote"tenant`,
		`back\slash`,
		"new\nline",
		"sep\xfftenant",
		`both\"and` + "\n",
	}
	for i, tenant := range hostile {
		rejected.Add(int64(i+1), "tenant_quota", tenant)
		results.Add(int64(10*(i+1)), tenant)
	}
	// A separator inside a value must not alias another series: the
	// pair ("a\xffb", "c") is distinct from ("a", "b\xffc").
	requests.Add(1, "a\xffb", "c")
	requests.Add(5, "a", "b\xffc")
	if got := requests.Value("a\xffb", "c"); got != 1 {
		t.Errorf(`Value(a\xffb, c) = %d, want 1`, got)
	}
	if got := requests.Value("a", "b\xffc"); got != 5 {
		t.Errorf(`Value(a, b\xffc) = %d, want 5`, got)
	}
	warm.Inc()

	var sb strings.Builder
	r.Render(&sb)
	out := sb.String()

	// Every line of the exposition must be a comment or a
	// `name{label="value",...} N` / `name N` sample — label values with
	// raw newlines or unescaped quotes break this shape.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		series := line[:sp]
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unbalanced label braces: %q", line)
			}
			if body := series[i+1 : len(series)-1]; !validLabelBody(body) {
				t.Fatalf("invalid label body: %q", line)
			}
		}
	}

	// The escaped forms appear; the raw ones never do.
	for _, want := range []string{
		`tenant="quote\"tenant"`,
		`tenant="back\\slash"`,
		`tenant="new\nline"`,
		`tenant="both\\\"and\n"`,
		"# HELP x_warm_total Help with a back\\\\slash\\nand a newline.\n",
		"# TYPE x_warm_total counter\nx_warm_total 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "new\nline") {
		t.Error("raw newline leaked into the exposition")
	}

	// Counts survive the hostile values.
	for i, tenant := range hostile {
		if got := rejected.Value("tenant_quota", tenant); got != int64(i+1) {
			t.Errorf("rejected.Value(tenant_quota, %q) = %d, want %d", tenant, got, i+1)
		}
		if got := results.Value(tenant); got != int64(10*(i+1)) {
			t.Errorf("results.Value(%q) = %d, want %d", tenant, got, 10*(i+1))
		}
	}

	// Snapshot (the /debug/vars mirror) holds the same families.
	snap := r.Snapshot()
	if got := snap["x_rejected_total"].(map[string]int64)["tenant_quota,plain"]; got != 0 {
		t.Errorf("unseen series = %d", got)
	}
	if got := snap["x_results_total"].(map[string]int64)[`back\slash`]; got != 20 {
		t.Errorf("snapshot results[back\\slash] = %d, want 20", got)
	}
	if got := snap["x_warm_total"]; got != int64(1) {
		t.Errorf("snapshot x_warm_total = %v, want 1", got)
	}
}

// validLabelBody checks `k="v",k="v"` with escaped quotes in v.
func validLabelBody(body string) bool {
	i := 0
	for i < len(body) {
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 || eq+1 >= len(body[i:]) || body[i+eq+1] != '"' {
			return false
		}
		j := i + eq + 2
		for j < len(body) {
			if body[j] == '\\' {
				j += 2
				continue
			}
			if body[j] == '"' {
				break
			}
			j++
		}
		if j >= len(body) {
			return false
		}
		i = j + 1
		if i < len(body) {
			if body[i] != ',' {
				return false
			}
			i++
		}
	}
	return true
}

// TestTelemRegistryBucketsMatchSLO feeds one observation set to a
// registry histogram and to the SLO tracker: both bucket it alike,
// including values exactly on a bound and past the last one.
func TestTelemRegistryBucketsMatchSLO(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("x_seconds", "Latency.", LatencyBounds)
	tr := NewSLOTracker(SLOConfig{})
	now := time.Unix(5000, 0)
	obs := []float64{0, 0.00005, 0.0001, 0.0003, 0.001, 0.02, 0.025, 0.7, 1, 3, 99, 100, 250}
	for _, v := range obs {
		h.Observe(v)
		tr.ObserveLatency("t", now, v)
	}
	var sb strings.Builder
	r.Render(&sb)
	st := tr.Status(now)[0]
	if len(st.LatencyCounts) != len(LatencyBounds)+1 {
		t.Fatalf("SLO buckets = %d, want %d", len(st.LatencyCounts), len(LatencyBounds)+1)
	}
	var cum int64
	for i, c := range st.LatencyCounts {
		cum += c
		le := "+Inf"
		if i < len(LatencyBounds) {
			le = fmt.Sprintf("%g", LatencyBounds[i])
		}
		if want := fmt.Sprintf("x_seconds_bucket{le=%q} %d\n", le, cum); !strings.Contains(sb.String(), want) {
			t.Errorf("registry bucket le=%s disagrees with the SLO tracker: want %q in\n%s", le, want, sb.String())
		}
	}
	if cum != int64(len(obs)) || st.LatencyCount != h.Count() {
		t.Fatalf("counts: SLO %d/%d, registry %d, want %d", cum, st.LatencyCount, h.Count(), len(obs))
	}
}
