// In-process fleet end-to-end tests: real sjoind services behind
// httptest listeners, a Router in front, and a standalone single
// service as the correctness oracle — the fleet must serve the exact
// single-daemon API with byte-identical join results.
package fleet_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialjoin/internal/fleet"
	"spatialjoin/internal/service"
)

// testFleet is N shards plus a router, all in-process.
type testFleet struct {
	t       *testing.T
	rt      *fleet.Router
	routerS *httptest.Server
	shards  map[string]*httptest.Server
	svcs    map[string]*service.Service
}

func newTestFleet(t *testing.T, n int, cfg fleet.Config) *testFleet {
	t.Helper()
	tf := &testFleet{
		t:      t,
		shards: map[string]*httptest.Server{},
		svcs:   map[string]*service.Service{},
	}
	urls := map[string]string{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%d", i+1)
		svc := service.New(service.Config{PlanCacheSize: 16})
		srv := httptest.NewServer(svc.Handler())
		tf.shards[id] = srv
		tf.svcs[id] = svc
		urls[id] = srv.URL
	}
	if cfg.HeartbeatInterval == 0 {
		// Liveness discovery in these tests goes through the request
		// path (markDead on transport error), not the prober.
		cfg.HeartbeatInterval = time.Hour
	}
	tf.rt = fleet.NewRouter(cfg, urls)
	tf.routerS = httptest.NewServer(tf.rt.Handler())
	t.Cleanup(func() {
		tf.routerS.Close()
		tf.rt.Close()
		for _, s := range tf.shards {
			s.Close()
		}
	})
	return tf
}

// do issues a request against the router with an optional tenant.
func (tf *testFleet) do(method, path, tenant, body string) (*http.Response, map[string]any) {
	tf.t.Helper()
	req, err := http.NewRequest(method, tf.routerS.URL+path, strings.NewReader(body))
	if err != nil {
		tf.t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tf.t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	json.NewDecoder(resp.Body).Decode(&m)
	return resp, m
}

// generate places a server-side generated dataset through the router.
func (tf *testFleet) generate(tenant, name string, n, seed int) {
	tf.t.Helper()
	resp, m := tf.do(http.MethodPost,
		fmt.Sprintf("/v1/datasets?name=%s&generate=gaussian&n=%d&seed=%d", name, n, seed), tenant, "")
	if resp.StatusCode != http.StatusCreated {
		tf.t.Fatalf("generate %s: status %d: %v", name, resp.StatusCode, m)
	}
}

// oracle computes the single-process reference answer for a join of
// two generated datasets.
func oracle(t *testing.T, nR, seedR, nS, seedS int, joinBody string) map[string]any {
	t.Helper()
	svc := service.New(service.Config{PlanCacheSize: 16})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	for _, d := range []struct {
		name    string
		n, seed int
	}{{"r", nR, seedR}, {"s", nS, seedS}} {
		resp, err := http.Post(fmt.Sprintf("%s/v1/datasets?name=%s&generate=gaussian&n=%d&seed=%d",
			srv.URL, d.name, d.n, d.seed), "", nil)
		if err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("oracle upload %s failed: %v / %v", d.name, err, resp)
		}
		resp.Body.Close()
	}
	resp, err := http.Post(srv.URL+"/v1/join", "application/json", strings.NewReader(joinBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("oracle join: status %d: %v", resp.StatusCode, m)
	}
	return m
}

// joinVia joins r,s through the router and requires 200.
func (tf *testFleet) joinVia(tenant, body string) map[string]any {
	tf.t.Helper()
	resp, m := tf.do(http.MethodPost, "/v1/join", tenant, body)
	if resp.StatusCode != http.StatusOK {
		tf.t.Fatalf("router join: status %d: %v", resp.StatusCode, m)
	}
	return m
}

// pickPair scans generated datasets for one whose primary owner
// relation (same/different shard) matches want.
func pickPair(tf *testFleet, names []string, wantSame bool) (string, string) {
	for i := 0; i < len(names); i++ {
		for j := 0; j < len(names); j++ {
			if i == j {
				continue
			}
			oi, oj := tf.rt.Owners("", names[i]), tf.rt.Owners("", names[j])
			if len(oi) == 0 || len(oj) == 0 {
				continue
			}
			if (oi[0] == oj[0]) == wantSame {
				return names[i], names[j]
			}
		}
	}
	tf.t.Fatalf("no dataset pair with same-owner=%v among %v", wantSame, names)
	return "", ""
}

const joinShape = `{"r":"%s","s":"%s","eps":0.4,"algorithm":"lpib"}`

// seeds maps a test dataset name back to its generator arguments so the
// oracle can rebuild it.
var seeds = map[string][2]int{}

func setupDatasets(tf *testFleet, count, points int) []string {
	names := make([]string, count)
	for i := range names {
		names[i] = fmt.Sprintf("ds%d", i)
		seeds[names[i]] = [2]int{points, 100 + i}
		tf.generate("", names[i], points, 100+i)
	}
	return names
}

func checkAgainstOracle(t *testing.T, tf *testFleet, r, s string) map[string]any {
	t.Helper()
	body := fmt.Sprintf(joinShape, r, s)
	got := tf.joinVia("", body)
	want := oracle(t, seeds[r][0], seeds[r][1], seeds[s][0], seeds[s][1],
		fmt.Sprintf(joinShape, "r", "s"))
	if got["checksum"] != want["checksum"] || got["results"] != want["results"] {
		t.Fatalf("fleet join %s⋈%s = (%v, %v results), single-process = (%v, %v results)",
			r, s, got["checksum"], got["results"], want["checksum"], want["results"])
	}
	return got
}

func TestRouterLocalAndStreamedJoins(t *testing.T) {
	tf := newTestFleet(t, 3, fleet.Config{Replicas: 1})
	names := setupDatasets(tf, 8, 500)

	// Same-shard pair: plain proxy.
	r, s := pickPair(tf, names, true)
	checkAgainstOracle(t, tf, r, s)
	if tf.rt.Metrics.Joins.Value("local") == 0 {
		t.Error("same-shard join did not count as mode=local")
	}

	// Cross-shard pair: the smaller side streams to the larger's shard.
	r, s = pickPair(tf, names, false)
	checkAgainstOracle(t, tf, r, s)
	if tf.rt.Metrics.Joins.Value("streamed") == 0 {
		t.Error("cross-shard join did not count as mode=streamed")
	}

	// Repeating the streamed join reuses the mirror (one migration).
	mirrors := tf.rt.Metrics.Migrations.Value("mirror")
	checkAgainstOracle(t, tf, r, s)
	if again := tf.rt.Metrics.Migrations.Value("mirror"); again != mirrors {
		t.Errorf("repeat streamed join re-shipped the mirror: %d -> %d", mirrors, again)
	}

	// The router's list endpoint serves the client-visible catalog.
	resp, _ := tf.do(http.MethodGet, "/v1/datasets", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
}

func TestRouterStreamedPairSet(t *testing.T) {
	tf := newTestFleet(t, 3, fleet.Config{Replicas: 1})
	names := setupDatasets(tf, 8, 500)
	r, s := pickPair(tf, names, false)

	// Collected pairs of a cross-shard join are the same set the single
	// process produces.
	body := fmt.Sprintf(`{"r":"%s","s":"%s","eps":0.4,"algorithm":"lpib","collect":true}`, r, s)
	got := tf.joinVia("", body)
	want := oracle(t, seeds[r][0], seeds[r][1], seeds[s][0], seeds[s][1],
		`{"r":"r","s":"s","eps":0.4,"algorithm":"lpib","collect":true}`)
	if tf.rt.Metrics.Joins.Value("streamed") == 0 {
		t.Fatal("cross-shard join did not count as mode=streamed")
	}
	if pairs := sortedPairs(want["pairs"]); len(pairs) == 0 || fmt.Sprint(sortedPairs(got["pairs"])) != fmt.Sprint(pairs) {
		t.Fatal("streamed pair set differs from the single-process join")
	}
}

func sortedPairs(v any) []string {
	arr, _ := v.([]any)
	out := make([]string, 0, len(arr))
	for _, p := range arr {
		out = append(out, fmt.Sprint(p))
	}
	sort.Strings(out)
	return out
}

func TestRouterTenantIsolation(t *testing.T) {
	tf := newTestFleet(t, 2, fleet.Config{
		TenantOverrides: map[string]fleet.Quota{"noisy": {Rate: 1, Burst: 2}},
	})
	// The same dataset name per tenant: placement keys are tenant-aware
	// and the copies are independent.
	tf.generate("noisy", "pts", 300, 1)
	tf.generate("quiet", "pts", 300, 2)

	// Tenants see only their own catalog.
	resp, _ := tf.do(http.MethodGet, "/v1/datasets", "noisy", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}

	body := fmt.Sprintf(joinShape, "pts", "pts")
	// Burst admits two joins, the third 429s with Retry-After.
	for i := 0; i < 2; i++ {
		resp, m := tf.do(http.MethodPost, "/v1/join", "noisy", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("noisy join %d: status %d: %v", i, resp.StatusCode, m)
		}
	}
	resp, m := tf.do(http.MethodPost, "/v1/join", "noisy", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota join: status %d: %v", resp.StatusCode, m)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 lacks Retry-After")
	}
	if tf.rt.Metrics.TenantRejected.Value("noisy") == 0 {
		t.Error("tenant rejection not counted")
	}

	// The throttled tenant does not affect anyone else.
	resp, m = tf.do(http.MethodPost, "/v1/join", "quiet", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quiet join during noisy throttle: status %d: %v", resp.StatusCode, m)
	}
}

func TestRouterShardDeathRetry(t *testing.T) {
	tf := newTestFleet(t, 3, fleet.Config{Replicas: 2})
	names := setupDatasets(tf, 6, 400)
	r, s := pickPair(tf, names, true)

	before := checkAgainstOracle(t, tf, r, s)

	// Kill the primary serving this join. Replication factor 2 means
	// the next ring owner already holds both datasets.
	primary := tf.rt.Owners("", r)[0]
	tf.shards[primary].Close()

	// The next join hits the dead shard, marks it dead, and the retry
	// resolves against the replicas — same bytes, no client-visible
	// failure.
	after := checkAgainstOracle(t, tf, r, s)
	if after["checksum"] != before["checksum"] {
		t.Fatalf("post-death checksum %v differs from pre-death %v", after["checksum"], before["checksum"])
	}
	if tf.rt.Metrics.Retries.Value(primary) == 0 {
		t.Error("shard death did not register a retry")
	}
	if tf.rt.Metrics.ShardDeaths.Value(primary) == 0 {
		t.Error("shard death not counted")
	}

	// The ring endpoint reflects the death.
	var info fleet.RingInfo
	resp, err := http.Get(tf.routerS.URL + "/v1/fleet/ring")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	for _, sh := range info.Shards {
		if sh.ID == primary && sh.Alive {
			t.Error("ring info still lists the dead shard as alive")
		}
	}
}

func TestRouterShardJoinLeaveMigration(t *testing.T) {
	tf := newTestFleet(t, 2, fleet.Config{Replicas: 2})
	names := setupDatasets(tf, 4, 400)
	r, s := names[0], names[1]
	before := checkAgainstOracle(t, tf, r, s)

	// Continuous traffic across the membership changes: no request may
	// fail while datasets migrate.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		body := fmt.Sprintf(joinShape, r, s)
		for {
			select {
			case <-stop:
				return
			default:
			}
			req, _ := http.NewRequest(http.MethodPost, tf.routerS.URL+"/v1/join", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- err.Error()
				return
			}
			var m map[string]any
			json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("status %d: %v", resp.StatusCode, m)
				return
			}
			if m["checksum"] != before["checksum"] {
				errs <- fmt.Sprintf("checksum drifted to %v", m["checksum"])
				return
			}
		}
	}()

	// A third shard joins: pre-copy, ring swap, prune, warm.
	svc := service.New(service.Config{PlanCacheSize: 16})
	srv := httptest.NewServer(svc.Handler())
	tf.shards["s3"], tf.svcs["s3"] = srv, svc
	resp, m := tf.do(http.MethodPost, "/v1/fleet/shards", "", fmt.Sprintf(`{"id":"s3","url":%q}`, srv.URL))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard join: status %d: %v", resp.StatusCode, m)
	}

	// And the original first shard leaves gracefully: its datasets move
	// via the dstore handoff before the ring swap.
	resp, m = tf.do(http.MethodDelete, "/v1/fleet/shards/s1", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard leave: status %d: %v", resp.StatusCode, m)
	}

	close(stop)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatalf("in-flight request failed during migration: %s", e)
	default:
	}

	if tf.rt.Metrics.Migrations.Value("rebalance") == 0 {
		t.Error("membership change moved no datasets")
	}

	// s1 is gone from placement; results still match the oracle.
	for _, n := range names {
		for _, owner := range tf.rt.Owners("", n) {
			if owner == "s1" {
				t.Fatalf("dataset %s still placed on the departed shard", n)
			}
		}
	}
	checkAgainstOracle(t, tf, r, s)
	checkAgainstOracle(t, tf, names[2], names[3])
}

func TestRouterRejectsBadInputs(t *testing.T) {
	tf := newTestFleet(t, 1, fleet.Config{})
	for _, tc := range []struct {
		method, path, tenant, body string
		want                       int
	}{
		{"POST", "/v1/datasets?name=~sneaky", "", "", http.StatusBadRequest},
		{"POST", "/v1/datasets?name=t~x", "", "", http.StatusBadRequest},
		{"POST", "/v1/datasets?name=ok", "bad tenant!", "", http.StatusBadRequest},
		{"POST", "/v1/join", "", `{"r":"nope","s":"nope","eps":0.1}`, http.StatusNotFound},
		{"POST", "/v1/join", "", `{"r":"a","s":"b","eps":0.1,"bogus":1}`, http.StatusBadRequest},
		{"DELETE", "/v1/datasets/nope", "", "", http.StatusNotFound},
	} {
		resp, _ := tf.do(tc.method, tc.path, tc.tenant, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}
