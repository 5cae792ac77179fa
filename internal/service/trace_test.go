package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"spatialjoin"
	"spatialjoin/internal/obs"
)

// TestServiceJoinTrace checks every join retains a trace reachable by
// its join id, with a single join-rooted span tree, task spans, and a
// populated skew report, and that the histograms were fed.
func TestServiceJoinTrace(t *testing.T) {
	s := testService(t, Config{})
	resp, err := s.Join(context.Background(), JoinRequest{R: "r", S: "s", Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.JoinID == 0 {
		t.Fatal("join response carries no join id")
	}
	tr, ok := s.Trace(resp.JoinID)
	if !ok {
		t.Fatalf("trace for join %d not retained", resp.JoinID)
	}
	if tr.TraceID == "" || tr.Spans == 0 {
		t.Fatalf("empty trace: %+v", tr)
	}
	if len(tr.Tree) != 1 || tr.Tree[0].Name != "join" {
		t.Fatalf("trace is not a single join-rooted tree: %d roots", len(tr.Tree))
	}
	if tr.Skew.Tasks == 0 || tr.Skew.MaxTaskMicros <= 0 {
		t.Fatalf("skew report empty: %+v", tr.Skew)
	}
	if got := s.Metrics.JoinLatency.Count(); got != 1 {
		t.Fatalf("join latency histogram count = %d, want 1", got)
	}
	if got := s.Metrics.TaskDuration.Count(); got < int64(tr.Skew.Tasks) {
		t.Fatalf("task histogram count = %d, want >= %d", got, tr.Skew.Tasks)
	}

	if _, ok := s.Trace(resp.JoinID + 999); ok {
		t.Fatal("unknown join id returned a trace")
	}
}

// TestServiceTraceRingEviction checks the trace ring keeps only the
// most recent obs.DefaultRingSize joins.
func TestServiceTraceRingEviction(t *testing.T) {
	s := New(Config{})
	var first, last int64
	for i := 0; i < obs.DefaultRingSize+5; i++ {
		tr := spatialjoin.NewTracer()
		sp := tr.Start(0, "join")
		sp.End()
		last = s.observeTrace("lpib", "", "r", "s", 0.5, tr, time.Millisecond)
		if i == 0 {
			first = last
		}
	}
	if _, ok := s.Trace(first); ok {
		t.Fatal("oldest trace survived past the ring capacity")
	}
	if _, ok := s.Trace(last); !ok {
		t.Fatal("newest trace missing")
	}
	for id := last - obs.DefaultRingSize + 1; id <= last; id++ {
		if _, ok := s.Trace(id); !ok {
			t.Fatalf("trace %d missing from a full ring of %d", id, obs.DefaultRingSize)
		}
	}
	if _, ok := s.Trace(last - obs.DefaultRingSize); ok {
		t.Fatalf("ring holds more than %d traces", obs.DefaultRingSize)
	}
}

// TestHTTPJoinTraceEndpoint exercises GET /v1/joins/{id}/trace over
// HTTP in both formats, plus its error paths.
func TestHTTPJoinTraceEndpoint(t *testing.T) {
	s := testService(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := strings.NewReader(`{"r": "r", "s": "s", "eps": 0.5}`)
	res, err := http.Post(srv.URL+"/v1/join", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var jr JoinResponse
	if err := json.NewDecoder(res.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if jr.JoinID == 0 {
		t.Fatal("HTTP join response carries no join_id")
	}

	res, err = http.Get(fmt.Sprintf("%s/v1/joins/%d/trace", srv.URL, jr.JoinID))
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint status %d", res.StatusCode)
	}
	var tw JoinTraceResponse
	if err := json.NewDecoder(res.Body).Decode(&tw); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if tw.JoinID != jr.JoinID || len(tw.Tree) != 1 || tw.Skew.Tasks == 0 {
		t.Fatalf("trace payload implausible: %+v", tw)
	}

	// Chrome trace-event export: a traceEvents array of metadata ("M")
	// and complete ("X") events with non-negative microsecond stamps.
	res, err = http.Get(fmt.Sprintf("%s/v1/joins/%d/trace?format=chrome", srv.URL, jr.JoinID))
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(res.Body).Decode(&chrome); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	res.Body.Close()
	var complete int
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "M" && ev.Ph != "X" {
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
		if ev.Ph == "X" {
			complete++
			if ev.Name == "" || ev.Ts < 0 {
				t.Fatalf("malformed complete event: %+v", ev)
			}
		}
	}
	if complete == 0 {
		t.Fatal("chrome trace has no complete events")
	}

	for path, want := range map[string]int{
		"/v1/joins/999999/trace": http.StatusNotFound,
		"/v1/joins/xyz/trace":    http.StatusBadRequest,
	} {
		res, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != want {
			t.Fatalf("GET %s status %d, want %d", path, res.StatusCode, want)
		}
	}
}

// Prometheus text-format grammar for one sample line.
var sampleRe = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\\\|\\"|\\n|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\\\|\\"|\\n|[^"\\])*")*\})? (-?[0-9.]+([eE][+-]?[0-9]+)?|\+Inf|NaN)$`)

var commentRe = regexp.MustCompile(
	`^# (HELP [a-zA-Z_:][a-zA-Z0-9_:]* [^\n]*|TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram))$`)

// TestMetricsExpositionFormat scrapes /metrics after real traffic —
// including a label value that needs every escape the format defines —
// and validates the exposition line by line: each line is a well-formed
// HELP/TYPE comment or sample, and every sample belongs to a metric
// family declared by a preceding HELP + TYPE pair.
func TestMetricsExpositionFormat(t *testing.T) {
	s := testService(t, Config{})
	if _, err := s.Join(context.Background(), JoinRequest{R: "r", S: "s", Eps: 0.5}); err != nil {
		t.Fatal(err)
	}
	// Adversarial label value: quote, backslash, newline.
	s.Metrics.Requests.Inc("weird\"end\\point\nnewline", "200")

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	res, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	var sb strings.Builder
	s.Metrics.Render(&sb)
	out := sb.String()

	helped := map[string]bool{}
	typed := map[string]bool{}
	samples := 0
	for i, line := range strings.Split(out, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !commentRe.MatchString(line) {
				t.Fatalf("line %d: malformed comment %q", i+1, line)
			}
			f := strings.Fields(line)
			if f[1] == "HELP" {
				helped[f[2]] = true
			} else {
				typed[f[2]] = true
				if f[3] == "histogram" {
					for _, sfx := range []string{"_bucket", "_sum", "_count"} {
						helped[f[2]+sfx] = true
						typed[f[2]+sfx] = true
					}
				}
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample %q", i+1, line)
		}
		if !helped[m[1]] || !typed[m[1]] {
			t.Fatalf("line %d: sample %q not preceded by HELP+TYPE", i+1, m[1])
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("no samples rendered")
	}

	// The adversarial label value must come out escaped, on one line.
	want := `endpoint="weird\"end\\point\nnewline"`
	if !strings.Contains(out, want) {
		t.Fatalf("exposition lacks escaped label value %s", want)
	}
	// And the new histograms must be present after a traced join.
	for _, name := range []string{"sjoind_join_seconds", "sjoind_task_seconds"} {
		if !strings.Contains(out, "# TYPE "+name+" histogram") {
			t.Fatalf("missing histogram %s", name)
		}
		if !strings.Contains(out, name+"_count") {
			t.Fatalf("missing %s_count sample", name)
		}
	}
}

// TestSedonaJoinIsCachedAndTraced: a Sedona-like join is served like any
// other algorithm — its plan is cached, its retained trace has task spans
// that feed sjoind_task_seconds, and the repeat is a plan-cache hit.
func TestSedonaJoinIsCachedAndTraced(t *testing.T) {
	s := testService(t, Config{})
	req := JoinRequest{R: "r", S: "s", Eps: 0.5, Algorithm: spatialjoin.SedonaLike}
	first, err := s.Join(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanCache != "miss" {
		t.Fatalf("first sedona join plan_cache = %q, want miss", first.PlanCache)
	}
	tr, ok := s.Trace(first.JoinID)
	if !ok {
		t.Fatalf("trace for join %d not retained", first.JoinID)
	}
	if len(tr.Tree) != 1 || tr.Skew.Tasks == 0 {
		t.Fatalf("sedona trace: %d roots, %d tasks", len(tr.Tree), tr.Skew.Tasks)
	}
	if got := s.Metrics.TaskDuration.Count(); got < int64(tr.Skew.Tasks) {
		t.Fatalf("task histogram count = %d, want >= %d", got, tr.Skew.Tasks)
	}
	second, err := s.Join(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.PlanCache != "hit" || second.BuildMillis != 0 {
		t.Fatalf("second sedona join: plan_cache %q, build %v ms", second.PlanCache, second.BuildMillis)
	}
	if second.Results != first.Results || second.Checksum != first.Checksum {
		t.Fatalf("results diverged across the cache hit: (%d, %s) != (%d, %s)",
			first.Results, first.Checksum, second.Results, second.Checksum)
	}
}

// TestHTTPHostileEps: an ε that is not finite, or so small the plan's
// grid would not fit in memory, is a 400 for every algorithm and for the
// disk engine; so are a stream over such a grid and a geo join forcing
// too many tiles — and the daemon keeps serving afterwards.
func TestHTTPHostileEps(t *testing.T) {
	s := testService(t, Config{})
	defer s.Close()
	for name, seed := range map[string]int64{"r": 1, "s": 2} {
		if _, err := s.geo.put(name, geoTestObjects(seed, 50, seed*100_000)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	postTo := func(path, body string) (int, string) {
		t.Helper()
		res, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var sb strings.Builder
		if _, err := io.Copy(&sb, res.Body); err != nil {
			t.Fatal(err)
		}
		return res.StatusCode, sb.String()
	}
	post := func(body string) (int, string) { t.Helper(); return postTo("/v1/join", body) }
	for _, algo := range []string{"lpib", "uni-r", "eps-grid", "clone", "sedona", "auto", "disk"} {
		for _, eps := range []string{"NaN", "1e999", "-1e999", "1e-12", "1e-3"} {
			if algo == "sedona" && strings.HasPrefix(eps, "1e-") {
				continue // gridless: a tiny finite ε is an ordinary, nearly empty join
			}
			code, body := post(fmt.Sprintf(`{"r": "r", "s": "s", "eps": %s, "algorithm": %q}`, eps, algo))
			if code != http.StatusBadRequest {
				t.Errorf("%s eps=%s: status %d (%s), want 400", algo, eps, code, body)
			}
		}
	}
	for path, body := range map[string]string{
		"/v1/stream":        `{"name": "hostile", "eps": 1e-4, "min_x": 0, "min_y": 0, "max_x": 100, "max_y": 100}`,
		"/v1/geojoin":       `{"r": "r", "s": "s", "predicate": "intersects", "tiles": 100000}`,
		"/v1/geojoin/count": `{"r": "r", "s": "s", "predicate": "intersects", "tiles": 100000}`,
	} {
		if code, resp := postTo(path, body); code != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d (%s), want 400", path, body, code, resp)
		}
	}
	if code, body := post(`{"r": "r", "s": "s", "eps": 0.5}`); code != http.StatusOK {
		t.Fatalf("daemon not serving after hostile requests: %d %s", code, body)
	}
}

// TestHTTPHostileParallelism: a join body asking for more workers or
// partitions than the engine may start is a 400 from both join
// endpoints, and the daemon keeps serving afterwards.
func TestHTTPHostileParallelism(t *testing.T) {
	s := testService(t, Config{})
	defer s.Close()
	for name, seed := range map[string]int64{"r": 1, "s": 2} {
		if _, err := s.geo.put(name, geoTestObjects(seed, 50, seed*100_000)); err != nil {
			t.Fatal(err)
		}
	}
	h := s.Handler()
	post := func(path, body string) (int, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	for _, field := range []string{"workers", "partitions"} {
		for path, body := range map[string]string{
			"/v1/join":    `{"r": "r", "s": "s", "eps": 0.5, "%s": 2000000000}`,
			"/v1/geojoin": `{"r": "r", "s": "s", "predicate": "intersects", "%s": 2000000000}`,
		} {
			if code, resp := post(path, fmt.Sprintf(body, field)); code != http.StatusBadRequest {
				t.Errorf("POST %s %s=2e9: status %d (%s), want 400", path, field, code, resp)
			}
		}
	}
	if code, body := post("/v1/join", `{"r": "r", "s": "s", "eps": 0.5}`); code != http.StatusOK {
		t.Fatalf("daemon not serving after hostile requests: %d %s", code, body)
	}
}
