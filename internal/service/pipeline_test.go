package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialjoin"
	"spatialjoin/internal/fleet"
	"spatialjoin/internal/telem"
)

// gated makes e's execute start only once the test lets it: entered
// closes when execute is reached, proceed releases it.
func gated[R any](e engine[R], entered, proceed chan struct{}) engine[R] {
	execute := e.execute
	e.execute = func(ctx context.Context, j *joinRun) error {
		close(entered)
		<-proceed
		return execute(ctx, j)
	}
	return e
}

// expiring is a context whose deadline the test fires by hand, so a
// join outlives its deadline by construction rather than by timing.
type expiring struct {
	context.Context
	done chan struct{}
}

func (e expiring) Done() <-chan struct{} { return e.done }

func (e expiring) Err() error {
	select {
	case <-e.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// pipelineCase is one engine behind the pipeline, reachable over HTTP
// (path + the JSON fields that select it) and through the Go API.
type pipelineCase struct {
	name  string
	path  string
	extra string
	join  func(ctx context.Context, s *Service, req JoinRequest) (id int64, pairs [][2]int64, truncated bool, err error)
	gated func(ctx context.Context, s *Service, req JoinRequest, entered, proceed chan struct{}) error
}

func pointCase(name string, a spatialjoin.Algorithm, wire string) pipelineCase {
	return pipelineCase{
		name: name, path: "/v1/join", extra: fmt.Sprintf(`"algorithm": %q`, wire),
		join: func(ctx context.Context, s *Service, req JoinRequest) (int64, [][2]int64, bool, error) {
			req.Algorithm = a
			resp, err := s.Join(ctx, req)
			if err != nil {
				return 0, nil, false, err
			}
			return resp.JoinID, resp.Pairs, resp.Truncated, nil
		},
		gated: func(ctx context.Context, s *Service, req JoinRequest, entered, proceed chan struct{}) error {
			req.Algorithm = a
			_, err := run(ctx, s, req.query(wire), gated(s.pointEngine(req), entered, proceed))
			return err
		},
	}
}

func geoRequest(req JoinRequest) GeoJoinRequest {
	return GeoJoinRequest{
		R: req.R, S: req.S, Tenant: req.Tenant, Predicate: "intersects",
		Collect: req.Collect, Limit: req.Limit, Timeout: req.Timeout,
	}
}

var pipelineCases = []pipelineCase{
	pointCase("lpib", spatialjoin.AdaptiveLPiB, "lpib"),
	pointCase("sedona", spatialjoin.SedonaLike, "sedona"),
	{
		name: "disk", path: "/v1/join", extra: `"algorithm": "disk"`,
		join: func(ctx context.Context, s *Service, req JoinRequest) (int64, [][2]int64, bool, error) {
			resp, err := s.DiskJoin(ctx, req)
			if err != nil {
				return 0, nil, false, err
			}
			return resp.JoinID, resp.Pairs, resp.Truncated, nil
		},
		gated: func(ctx context.Context, s *Service, req JoinRequest, entered, proceed chan struct{}) error {
			_, err := run(ctx, s, req.query("disk"), gated(s.diskEngine(req), entered, proceed))
			return err
		},
	},
	{
		name: "geo", path: "/v1/geojoin", extra: `"predicate": "intersects"`,
		join: func(ctx context.Context, s *Service, req JoinRequest) (int64, [][2]int64, bool, error) {
			resp, err := s.GeoJoin(ctx, geoRequest(req))
			if err != nil {
				return 0, nil, false, err
			}
			return resp.JoinID, resp.Pairs, resp.Truncated, nil
		},
		gated: func(ctx context.Context, s *Service, req JoinRequest, entered, proceed chan struct{}) error {
			q := query{r: req.R, s: req.S, tenant: req.Tenant, algorithm: "twolayer", timeout: req.Timeout}
			_, err := run(ctx, s, q, gated(s.geoEngine(geoRequest(req)), entered, proceed))
			return err
		},
	},
}

// pipelineService registers point datasets r, s and geo datasets r, s,
// and gives tenant "noisy" a one-join budget.
func pipelineService(t *testing.T) *Service {
	t.Helper()
	s := testService(t, Config{TenantOverrides: map[string]fleet.Quota{"noisy": {Rate: 0.001, Burst: 1}}})
	t.Cleanup(func() { s.Close() })
	if _, err := s.geo.put("r", geoTestObjects(1, 250, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.geo.put("s", geoTestObjects(2, 250, 100_000)); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPipelineEveryEngine holds point (LPiB and Sedona), disk and geo
// joins to the behaviour the one pipeline gives them all: deadlines,
// tenant admission, trace retention, truncation and SLO accounting.
func TestPipelineEveryEngine(t *testing.T) {
	for _, c := range pipelineCases {
		t.Run(c.name, func(t *testing.T) {
			s := pipelineService(t)
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			post := func(tenant, body string) *http.Response {
				t.Helper()
				req, _ := http.NewRequest(http.MethodPost, srv.URL+c.path, strings.NewReader(body))
				req.Header.Set("X-Tenant", tenant)
				res, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
				return res
			}
			body := func(r string) string { return fmt.Sprintf(`{"r": %q, "s": "s", "eps": 0.5, %s}`, r, c.extra) }

			// An execute that outlives the deadline answers 504 at once, and
			// its slot stays taken until the execute itself returns.
			entered, proceed := make(chan struct{}), make(chan struct{})
			ctx := expiring{context.Background(), make(chan struct{})}
			errc := make(chan error, 1)
			go func() {
				errc <- c.gated(ctx, s, JoinRequest{R: "r", S: "s", Eps: 0.5}, entered, proceed)
			}()
			<-entered
			close(ctx.done)
			if err := <-errc; joinErrorCode(err) != http.StatusGatewayTimeout {
				t.Fatalf("join past its deadline: %v (status %d), want 504", err, joinErrorCode(err))
			}
			if n := s.InFlight(); n != 1 {
				t.Fatalf("in flight while execute still runs = %d, want 1", n)
			}
			close(proceed)
			for deadline := time.Now().Add(10 * time.Second); s.InFlight() != 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("slot never released after execute returned")
				}
			}

			// A tenant over quota gets 429 with Retry-After.
			if res := post("noisy", body("r")); res.StatusCode != http.StatusOK {
				t.Fatalf("first join within quota: status %d", res.StatusCode)
			}
			res := post("noisy", body("r"))
			if res.StatusCode != http.StatusTooManyRequests || res.Header.Get("Retry-After") == "" {
				t.Fatalf("join over quota: status %d, Retry-After %q", res.StatusCode, res.Header.Get("Retry-After"))
			}

			// join_id names a retained trace rooted at one join span, and a
			// collecting join with a limit truncates.
			id, pairs, truncated, err := c.join(context.Background(), s, JoinRequest{R: "r", S: "s", Eps: 0.5, Collect: true, Limit: 3})
			if err != nil {
				t.Fatal(err)
			}
			if tr, ok := s.Trace(id); !ok || len(tr.Tree) != 1 || tr.Tree[0].Name != "join" {
				t.Fatalf("join %d: trace not retained as one join-rooted tree", id)
			}
			if len(pairs) != 3 || !truncated {
				t.Fatalf("collect with limit 3: %d pairs, truncated %v", len(pairs), truncated)
			}

			// An unknown dataset is one SLO error, through HTTP or the Go API.
			if res := post("via-http", body("nope")); res.StatusCode != http.StatusNotFound {
				t.Fatalf("unknown dataset over HTTP: status %d", res.StatusCode)
			}
			if _, _, _, err := c.join(context.Background(), s, JoinRequest{R: "nope", S: "s", Eps: 0.5, Tenant: "via-go"}); err == nil {
				t.Fatal("unknown dataset accepted through the Go API")
			}
			slo := map[string]telem.SLOStatus{}
			for _, st := range s.Telem.SLO.Status(time.Now()) {
				slo[st.Tenant] = st
			}
			for _, tenant := range []string{"via-http", "via-go"} {
				if st := slo[tenant]; st.Total != 1 || st.Errors != 1 {
					t.Errorf("tenant %s SLO: total %d, errors %d; want 1, 1", tenant, st.Total, st.Errors)
				}
			}
		})
	}
}

// diskWant is the point path's answer the disk engine must reproduce.
func diskWant(t *testing.T, s *Service, eps float64) *JoinResponse {
	t.Helper()
	want, err := s.Join(context.Background(), JoinRequest{R: "r", S: "s", Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestDiskJoinConcurrentFirstUse: disk joins that race on a plan nobody
// has built yet build it once and all sweep it.
func TestDiskJoinConcurrentFirstUse(t *testing.T) {
	s := testService(t, Config{MaxConcurrent: 8})
	defer s.Close()
	want := diskWant(t, s, 0.3)
	misses := s.Metrics.PlanCacheMisses.Value()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.DiskJoin(context.Background(), JoinRequest{R: "r", S: "s", Eps: 0.3})
			if err != nil {
				t.Error(err)
				return
			}
			if got.Results != want.Results || got.Checksum != want.Checksum {
				t.Errorf("disk join = (%d, %s), point = (%d, %s)", got.Results, got.Checksum, want.Results, want.Checksum)
			}
		}()
	}
	wg.Wait()
	if n := s.Metrics.PlanCacheMisses.Value() - misses; n != 1 {
		t.Fatalf("8 concurrent first-use disk joins counted %d plan-cache misses, want 1", n)
	}
}

// TestDiskJoinEvictionUnderLoad: with room for two plans, joins at
// twelve ε ceilings keep evicting plans other joins are still sweeping;
// an evicted plan stays mapped until its last join returns.
func TestDiskJoinEvictionUnderLoad(t *testing.T) {
	s := New(Config{PlanCacheSize: 2, MaxConcurrent: 6})
	defer s.Close()
	for name, seed := range map[string]int64{"r": 1, "s": 2} {
		if _, err := s.Registry.Put(name, spatialjoin.GenerateUniform(500, seed)); err != nil {
			t.Fatal(err)
		}
	}
	var eps [12]float64
	var want [12]*JoinResponse
	for k := range eps {
		eps[k] = 0.25 * float64(int(1)<<k)
		want[k] = diskWant(t, s, eps[k])
	}
	var wg sync.WaitGroup
	for k := range eps {
		for range 3 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := s.DiskJoin(context.Background(), JoinRequest{R: "r", S: "s", Eps: eps[k]})
				if err != nil {
					t.Error(err)
					return
				}
				if got.Results != want[k].Results || got.Checksum != want[k].Checksum {
					t.Errorf("eps %v: disk join = (%d, %s), point = (%d, %s)",
						eps[k], got.Results, got.Checksum, want[k].Results, want[k].Checksum)
				}
			}()
		}
	}
	wg.Wait()
}

// TestJoinReturnsWithSlotReleased: a join that has returned no longer
// counts in sjoind_requests_in_flight — run releases the slot before it
// hands back the outcome.
func TestJoinReturnsWithSlotReleased(t *testing.T) {
	s := testService(t, Config{})
	defer s.Close()
	for i := 0; i < 200; i++ {
		if _, err := s.Join(context.Background(), JoinRequest{R: "r", S: "s", Eps: 0.5}); err != nil {
			t.Fatal(err)
		}
		if n := s.InFlight(); n != 0 {
			t.Fatalf("join %d returned with %d in flight, want 0", i, n)
		}
	}
}
