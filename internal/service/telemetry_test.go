package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spatialjoin"
	"spatialjoin/internal/telem"
)

// TestTelemetryEndpoints drives joins through the HTTP handler and
// checks the three telemetry endpoints surface series, SLOs, and
// anomaly events.
func TestTelemetryEndpoints(t *testing.T) {
	// StragglerThreshold 1.0 makes every join with tasks an "anomaly",
	// so the event assertion is deterministic.
	s := testService(t, Config{StragglerThreshold: 1.0})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for i := 0; i < 3; i++ {
		req, _ := http.NewRequest("POST", srv.URL+"/v1/join/count",
			strings.NewReader(`{"r": "r", "s": "s", "eps": 0.5, "algorithm": "lpib"}`))
		req.Header.Set("X-Tenant", "acme")
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("join status = %d", res.StatusCode)
		}
	}
	// One failing join for the error budget.
	res, err := http.Post(srv.URL+"/v1/join/count", "application/json",
		strings.NewReader(`{"r": "nope", "s": "s", "eps": 0.5, "algorithm": "lpib"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("bad join status = %d", res.StatusCode)
	}

	var dumps []telem.SeriesDump
	getJSONBody(t, srv.URL+"/v1/telemetry/series?name="+telem.SeriesJoinLatency+"&key=acme", &dumps)
	if len(dumps) == 0 {
		t.Fatal("no join latency series for tenant acme")
	}
	var total int64
	for _, d := range dumps {
		if d.Res == "1s" {
			for _, b := range d.Buckets {
				total += b.Count
			}
		}
	}
	if total != 3 {
		t.Fatalf("latency 1s observations = %d, want 3", total)
	}
	getJSONBody(t, srv.URL+"/v1/telemetry/series?window=1h&res=1s", &dumps)
	if len(dumps) == 0 {
		t.Fatal("windowed series empty")
	}
	for _, d := range dumps {
		if d.Res != "1s" {
			t.Fatalf("res filter leaked %q", d.Res)
		}
	}

	var slos []telem.SLOStatus
	getJSONBody(t, srv.URL+"/v1/telemetry/slo", &slos)
	byTenant := map[string]telem.SLOStatus{}
	for _, st := range slos {
		byTenant[st.Tenant] = st
	}
	acme, ok := byTenant["acme"]
	if !ok || acme.Total != 3 || acme.Errors != 0 {
		t.Fatalf("acme SLO = %+v (rows %v)", acme, slos)
	}
	if acme.P99Millis <= 0 {
		t.Fatalf("acme p99 = %g, want > 0", acme.P99Millis)
	}
	anon, ok := byTenant[""]
	if !ok || anon.Errors != 1 {
		t.Fatalf("anonymous SLO = %+v", anon)
	}

	var evs []telem.Event
	getJSONBody(t, srv.URL+"/v1/telemetry/events", &evs)
	var spikes int
	for _, e := range evs {
		if e.Kind == telem.EventStragglerSpike {
			spikes++
		}
	}
	if spikes == 0 {
		t.Fatalf("no straggler events at threshold 1.0: %+v", evs)
	}

	// Bad query params 400.
	for _, path := range []string{
		"/v1/telemetry/series?window=bogus",
		"/v1/telemetry/events?limit=0",
	} {
		res, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s status = %d, want 400", path, res.StatusCode)
		}
	}
}

// TestTelemetryPlannerWindow checks /v1/planner/history?window= serves
// rollup-backed skew series even on an in-memory daemon.
func TestTelemetryPlannerWindow(t *testing.T) {
	s := testService(t, Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	res, err := http.Post(srv.URL+"/v1/join/count", "application/json",
		strings.NewReader(`{"r": "r", "s": "s", "eps": 0.5, "algorithm": "lpib"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()

	// The parameterless form still 400s without a data dir.
	res, err = http.Get(srv.URL + "/v1/planner/history")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("persisted history status = %d, want 400 (in-memory)", res.StatusCode)
	}

	var win map[string][]telem.SeriesDump
	getJSONBody(t, srv.URL+"/v1/planner/history?window=10m", &win)
	if len(win[telem.SeriesStragglerRatio]) == 0 {
		t.Fatalf("windowed history missing straggler series: %+v", win)
	}
	key := telem.JoinKey("r", "s", 0.5)
	if got := win[telem.SeriesStragglerRatio][0].Key; got != key {
		t.Fatalf("series key = %q, want %q", got, key)
	}
}

// TestTelemetryRuntimeMetrics checks the Go runtime satellite metrics
// appear in both expositions.
func TestTelemetryRuntimeMetrics(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	res, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	for _, want := range []string{"go_goroutines ", "go_memstats_heap_alloc_bytes ", "go_gc_pause_seconds_total ", "go_gomaxprocs "} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	var vars map[string]any
	getJSONBody(t, srv.URL+"/debug/vars", &vars)
	if _, ok := vars["go_goroutines"]; !ok {
		t.Fatal("/debug/vars missing go_goroutines")
	}
}

// TestTelemetryTraceRingConfigurable checks Config.TraceRing overrides
// the default retention depth.
func TestTelemetryTraceRingConfigurable(t *testing.T) {
	s := New(Config{TraceRing: 2})
	defer s.Close()
	var ids []int64
	for i := 0; i < 5; i++ {
		tr := spatialjoin.NewTracer()
		sp := tr.Start(0, "join")
		sp.End()
		ids = append(ids, s.observeTrace("lpib", "", "r", "s", 0.5, tr, time.Millisecond))
	}
	for _, id := range ids[:3] {
		if _, ok := s.Trace(id); ok {
			t.Fatalf("trace %d survived past ring of 2", id)
		}
	}
	for _, id := range ids[3:] {
		if _, ok := s.Trace(id); !ok {
			t.Fatalf("trace %d missing from ring of 2", id)
		}
	}
}

// TestTelemetrySamplerGauges calls the periodic collector once and
// checks it samples the service gauges from the metric registry.
func TestTelemetrySamplerGauges(t *testing.T) {
	s := testService(t, Config{})
	defer s.Close()
	if _, err := s.Join(context.Background(), JoinRequest{R: "r", S: "s", Eps: 0.5}); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	s.collectTelem(func(name, key string, v float64) { got[name] = v })
	want := map[string]float64{"queue_depth": 0, "in_flight": 0, "plan_cache_entries": 1, "datasets": 2}
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			t.Errorf("%s = %v (sampled %v), want %v", name, g, ok, v)
		}
	}
	if got["goroutines"] < 1 || got["heap_alloc_bytes"] <= 0 {
		t.Errorf("runtime gauges = %v", got)
	}
}

func getJSONBody(t *testing.T, url string, out any) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(res.Body)
		t.Fatalf("GET %s = %d: %s", url, res.StatusCode, body)
	}
	if err := json.NewDecoder(res.Body).Decode(out); err != nil {
		t.Fatalf("GET %s decode: %v", url, err)
	}
}
