package service

import (
	"os"
	"sort"
	"strings"
	"testing"
)

// TestMetricsFamilies renders a fresh metric set and checks what a
// scraper relies on — every family's HELP and TYPE, its label names,
// each histogram's le values, and the /debug/vars key set — against
// testdata/metric_families.txt, which was captured before the metric
// set moved onto the telem registry.
func TestMetricsFamilies(t *testing.T) {
	m := NewMetrics()
	m.Requests.Inc("join", "200")
	m.Rejected.Inc("queue_full", "t")
	m.JoinResults.Inc("t")
	m.StreamDeltaPairs.Inc("add")
	var sb strings.Builder
	m.Render(&sb)
	got := familyLines(sb.String())
	for k := range m.Snapshot() {
		got = append(got, "vars "+k)
	}
	sort.Strings(got)
	b, err := os.ReadFile("testdata/metric_families.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(got, "\n")+"\n", string(b); got != want {
		t.Errorf("sjoind metric families changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// familyLines reduces an exposition to what a scraper relies on: the
// HELP and TYPE lines, each family's label names, and each histogram's
// le values, sorted.
func familyLines(exposition string) []string {
	var out []string
	seen := map[string]bool{}
	les := map[string][]string{}
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "# ") {
			out = append(out, line)
			continue
		}
		series, _, _ := strings.Cut(line, " ")
		name, body, ok := strings.Cut(series, "{")
		if !ok {
			continue
		}
		var labels []string
		for _, kv := range strings.Split(strings.TrimSuffix(body, "}"), ",") {
			k, v, _ := strings.Cut(kv, "=")
			labels = append(labels, k)
			if k == "le" {
				les[name] = append(les[name], strings.Trim(v, `"`))
			}
		}
		if l := "labels " + name + "{" + strings.Join(labels, ",") + "}"; !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	for name, bounds := range les {
		out = append(out, "le "+name+" "+strings.Join(bounds, ","))
	}
	sort.Strings(out)
	return out
}
