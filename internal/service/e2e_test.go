package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spatialjoin"
	"spatialjoin/internal/textio"
)

// TestHTTPEndToEnd drives the full HTTP API in-process: uploads, joins
// (miss then hit with identical checksums), count-only joins, metrics,
// error mapping, deletion, and drain behaviour.
func TestHTTPEndToEnd(t *testing.T) {
	s := New(Config{PlanCacheSize: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJoin := func(path string, body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("decoding %s response: %v", path, err)
		}
		return resp, m
	}

	// Upload one dataset as a text body and generate the other server-side.
	var buf bytes.Buffer
	if err := textio.Write(&buf, spatialjoin.GenerateGaussian(3000, 7)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets?name=r", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d", resp.StatusCode)
	}
	var info DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Points != 3000 {
		t.Fatalf("uploaded %d points, want 3000", info.Points)
	}
	resp, err = http.Post(ts.URL+"/v1/datasets?name=s&generate=uniform&n=3000&seed=9", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("generate status = %d", resp.StatusCode)
	}

	// Listing shows both, sorted.
	resp, err = http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var infos []DatasetInfo
	json.NewDecoder(resp.Body).Decode(&infos)
	resp.Body.Close()
	if len(infos) != 2 || infos[0].Name != "r" || infos[1].Name != "s" {
		t.Fatalf("list = %+v", infos)
	}

	// Same join twice: miss, then hit with an identical checksum.
	body := `{"r":"r","s":"s","eps":0.5,"algorithm":"lpib"}`
	r1, j1 := postJoin("/v1/join", body)
	if r1.StatusCode != http.StatusOK || j1["plan_cache"] != "miss" {
		t.Fatalf("first join: status %d, %v", r1.StatusCode, j1)
	}
	r2, j2 := postJoin("/v1/join", body)
	if r2.StatusCode != http.StatusOK || j2["plan_cache"] != "hit" {
		t.Fatalf("second join: status %d, %v", r2.StatusCode, j2)
	}
	if j1["checksum"] != j2["checksum"] || j1["results"] != j2["results"] {
		t.Fatalf("cache hit changed results: %v vs %v", j1, j2)
	}

	// /v1/join/count never materialises pairs, even when asked to.
	_, jc := postJoin("/v1/join/count", `{"r":"r","s":"s","eps":0.5,"algorithm":"lpib","collect":true}`)
	if jc["results"] != j1["results"] || jc["pairs"] != nil {
		t.Fatalf("count join = %v", jc)
	}
	// Collecting through /v1/join respects the limit and flags truncation.
	_, jp := postJoin("/v1/join", `{"r":"r","s":"s","eps":0.5,"algorithm":"lpib","collect":true,"limit":5}`)
	if pairs, ok := jp["pairs"].([]any); !ok || len(pairs) != 5 || jp["truncated"] != true {
		t.Fatalf("collect join = %v", jp)
	}

	// Error mapping.
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"r":"nope","s":"s","eps":0.5}`, http.StatusNotFound},
		{`{"r":"r","s":"s","eps":-1}`, http.StatusBadRequest},
		{`{"r":"r","s":"s","eps":0.5,"algorithm":"nope"}`, http.StatusBadRequest},
		{`{"r":"r","s":"s","eps":0.5,"bogus_field":1}`, http.StatusBadRequest},
	} {
		resp, m := postJoin("/v1/join", tc.body)
		if resp.StatusCode != tc.code || m["error"] == "" {
			t.Errorf("join %s: status %d (want %d), %v", tc.body, resp.StatusCode, tc.code, m)
		}
	}

	// Metrics expose the hit and the vars mirror parses.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		// One miss builds the plan; the repeat, count, and collect joins
		// all share it (Collect is execution-time, not part of the key).
		"sjoind_plan_cache_hits_total 3",
		"sjoind_plan_cache_misses_total 1",
		`sjoind_requests_total{endpoint="join",code="200"}`,
		"sjoind_plan_build_seconds_count 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	resp.Body.Close()
	if vars["sjoind_datasets"] != float64(2) {
		t.Fatalf("vars datasets = %v", vars["sjoind_datasets"])
	}

	// Deleting a dataset drops its cached plans and later joins 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/s", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	if n := s.Metrics.PlanCacheEntries.Value(); n != 0 {
		t.Fatalf("plan cache holds %d plans after delete", n)
	}
	if resp, _ := postJoin("/v1/join", body); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("join after delete: status %d", resp.StatusCode)
	}

	// Healthy until draining; afterwards joins are refused with 503.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %v, %v", resp, err)
	}
	s.StartDrain()
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %v, %v", resp, err)
	}
	if resp, _ := postJoin("/v1/join", `{"r":"r","s":"r","eps":0.5}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining join: status %d", resp.StatusCode)
	}
}

// TestHTTPUploadErrors exercises the dataset endpoint's failure modes.
func TestHTTPUploadErrors(t *testing.T) {
	s := New(Config{MaxUploadBytes: 128})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		path, body string
	}{
		{"/v1/datasets", "1 2"},                                  // no name
		{"/v1/datasets?name=x", ""},                              // no points
		{"/v1/datasets?name=x", "1 notanumber"},                  // malformed line
		{"/v1/datasets?name=x", strings.Repeat("0.5 0.5\n", 64)}, // over MaxUploadBytes
		{"/v1/datasets?name=x&generate=uniform&n=0", ""},         // bad n
		{"/v1/datasets?name=x&generate=warp&n=10", ""},           // bad generator
	}
	for _, tc := range cases {
		if code := post(tc.path, tc.body); code != http.StatusBadRequest {
			t.Errorf("POST %s (%q...): status %d, want 400", tc.path, firstLine(tc.body), code)
		}
	}
	if got := s.Metrics.Requests.Value("datasets_put", "400"); got != int64(len(cases)) {
		t.Errorf("400 counter = %d, want %d", got, len(cases))
	}
}

// TestHandoffExportRejectsStrips: the handoff export always ships the
// whole dataset, so a request for an x-range strip fails closed rather
// than answering every strip with all the points.
func TestHandoffExportRejectsStrips(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/datasets?name=d&generate=uniform&n=200&seed=3", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("generate status = %d", resp.StatusCode)
	}
	for query, want := range map[string]int{
		"":                  http.StatusOK,
		"?xlo=0&xhi=1":      http.StatusBadRequest,
		"?xlo=0":            http.StatusBadRequest,
		"?xhi=1":            http.StatusBadRequest,
		"?inchi=1":          http.StatusBadRequest,
		"?xlo=&xhi=&inchi=": http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + "/v1/admin/handoff/d" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET /v1/admin/handoff/d%s: status %d, want %d", query, resp.StatusCode, want)
		}
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
