package fleet

import (
	"os"
	"sort"
	"strings"
	"testing"
)

// TestMetricsFamilies renders a fresh router metric set and checks what
// a scraper relies on — every family's HELP and TYPE and its label
// names — against testdata/metric_families.txt, which was captured
// before the metric set moved onto the telem registry.
func TestMetricsFamilies(t *testing.T) {
	m := NewMetrics()
	m.Requests.Inc("join", "200")
	m.Proxied.Inc("s1")
	m.Joins.Inc("local")
	m.Retries.Inc("s1")
	m.TenantRejected.Inc("t")
	m.ShardDeaths.Inc("s1")
	m.Migrations.Inc("mirror")
	m.HandoffBytes.Inc("mirror")
	m.WarmJoins.Inc()
	var sb strings.Builder
	m.Render(&sb)
	b, err := os.ReadFile("testdata/metric_families.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(familyLines(sb.String()), "\n") + "\n"
	if want := string(b); got != want {
		t.Errorf("router metric families changed:\ngot:\n%s\nwant:\n%s", got, want)
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
