package service

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialjoin"
)

func testService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	if _, err := s.Registry.Put("r", spatialjoin.GenerateUniform(2000, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry.Put("s", spatialjoin.GenerateUniform(2000, 2)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRegistry(t *testing.T) {
	s := New(Config{})
	if _, err := s.Registry.Put("", spatialjoin.GenerateUniform(10, 1)); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := s.Registry.Put("x", nil); err == nil {
		t.Fatal("empty dataset accepted")
	}
	rev1, err := s.Registry.Put("x", spatialjoin.GenerateUniform(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	rev2, err := s.Registry.Put("x", spatialjoin.GenerateUniform(20, 2))
	if err != nil {
		t.Fatal(err)
	}
	if rev2 <= rev1 {
		t.Fatalf("revision did not advance: %d -> %d", rev1, rev2)
	}
	infos := s.Registry.List()
	if len(infos) != 1 || infos[0].Points != 20 || infos[0].Rev != rev2 {
		t.Fatalf("list = %+v", infos)
	}
	if s.Metrics.Datasets.Value() != 1 || s.Metrics.DatasetPoints.Value() != 20 {
		t.Fatalf("dataset gauges = %d, %d", s.Metrics.Datasets.Value(), s.Metrics.DatasetPoints.Value())
	}
	if !s.Registry.Delete("x") || s.Registry.Delete("x") {
		t.Fatal("delete semantics broken")
	}
	if s.Metrics.DatasetPoints.Value() != 0 {
		t.Fatalf("points gauge after delete = %d", s.Metrics.DatasetPoints.Value())
	}
}

// TestRegistryApplyKeepsPlan: re-upserting unchanged points through
// Registry.Apply moves them to the end of the dataset, which changes
// its order but not its points; a plan rebuilt after it must replicate
// exactly as before, because the sample is drawn by id, not position.
func TestRegistryApplyKeepsPlan(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	for name, ts := range map[string][]spatialjoin.Tuple{
		"r": spatialjoin.GenerateTigerLike(6000, 11),
		"s": spatialjoin.GenerateGaussian(6000, 12),
	} {
		if _, err := s.Registry.Put(name, ts); err != nil {
			t.Fatal(err)
		}
	}
	req := JoinRequest{R: "r", S: "s", Eps: 0.6, Algorithm: spatialjoin.AdaptiveLPiB, Workers: 4, Seed: 3}
	before, err := s.Join(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"r", "s"} {
		d, err := s.Registry.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		first := d.Tuples[0].ID
		if _, err := s.Registry.Apply(name, d.Tuples[:len(d.Tuples)/2], nil); err != nil {
			t.Fatal(err)
		}
		if d, _ = s.Registry.Get(name); d.Tuples[0].ID == first {
			t.Fatalf("re-upsert left %q in its old order; the test needs a reordered dataset", name)
		}
	}
	after, err := s.Join(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if after.PlanCache != "miss" {
		t.Fatalf("plan cache %q after Apply, want a rebuilt plan", after.PlanCache)
	}
	if after.ReplicatedR != before.ReplicatedR || after.ReplicatedS != before.ReplicatedS ||
		after.Results != before.Results || after.Checksum != before.Checksum {
		t.Fatalf("reordered datasets moved the plan: replicated %d/%d → %d/%d, results %d → %d",
			before.ReplicatedR, before.ReplicatedS, after.ReplicatedR, after.ReplicatedS, before.Results, after.Results)
	}
}

func TestPlanCacheSingleFlight(t *testing.T) {
	c := newPlanCache(8, NewMetrics())
	rs := spatialjoin.GenerateUniform(500, 1)
	ss := spatialjoin.GenerateUniform(500, 2)
	key := PlanKey{R: "r", S: "s", Eps: 0.5}
	var builds atomic.Int64
	build := func() (cachedPlan, error) {
		builds.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the race window
		return spatialjoin.Prepare(rs, ss, spatialjoin.Options{Eps: 0.5})
	}
	var wg sync.WaitGroup
	plans := make([]cachedPlan, 16)
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, release, err := c.GetOrBuild(key, build)
			if err != nil {
				t.Error(err)
				return
			}
			release()
			plans[i] = p
		}(i)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("plan built %d times, want exactly 1", builds.Load())
	}
	for _, p := range plans {
		if p != plans[0] {
			t.Fatal("concurrent callers received different plans")
		}
	}
	// A later call is a plain cache hit.
	if _, hit, _, _ := c.GetOrBuild(key, build); !hit {
		t.Fatal("second lookup missed")
	}
	if builds.Load() != 1 {
		t.Fatal("cache hit rebuilt the plan")
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	m := NewMetrics()
	c := newPlanCache(2, m)
	rs := spatialjoin.GenerateUniform(200, 1)
	ss := spatialjoin.GenerateUniform(200, 2)
	mk := func(eps float64) PlanKey { return PlanKey{R: "r", S: "s", Eps: eps} }
	build := func(eps float64) func() (cachedPlan, error) {
		return func() (cachedPlan, error) {
			return spatialjoin.Prepare(rs, ss, spatialjoin.Options{Eps: eps})
		}
	}
	for _, eps := range []float64{0.1, 0.2, 0.3} {
		if _, _, _, err := c.GetOrBuild(mk(eps), build(eps)); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.PlanCacheEntries.Value(); n != 2 {
		t.Fatalf("cache holds %d plans, want 2", n)
	}
	if m.PlanCacheEvictions.Value() != 1 {
		t.Fatalf("evictions = %d, want 1", m.PlanCacheEvictions.Value())
	}
	// 0.1 was evicted (LRU); 0.2 and 0.3 must still hit.
	if _, hit, _, _ := c.GetOrBuild(mk(0.2), build(0.2)); !hit {
		t.Fatal("0.2 evicted unexpectedly")
	}
	if _, hit, _, _ := c.GetOrBuild(mk(0.1), build(0.1)); hit {
		t.Fatal("0.1 survived eviction")
	}
}

func TestPlanCacheErrorNotCached(t *testing.T) {
	c := newPlanCache(2, NewMetrics())
	var calls atomic.Int64
	bad := func() (cachedPlan, error) {
		calls.Add(1)
		return nil, context.DeadlineExceeded
	}
	key := PlanKey{R: "r", S: "s", Eps: 0.5}
	if _, _, _, err := c.GetOrBuild(key, bad); err == nil {
		t.Fatal("error swallowed")
	}
	if _, _, _, err := c.GetOrBuild(key, bad); err == nil {
		t.Fatal("error cached as success")
	}
	if n := c.metrics.PlanCacheEntries.Value(); calls.Load() != 2 || n != 0 {
		t.Fatalf("calls = %d, len = %d; errors must not be cached", calls.Load(), n)
	}
}

func TestAdmissionControl(t *testing.T) {
	s := testService(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	ctx := context.Background()

	release1, err := s.acquire(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	// One waiter fits in the queue.
	waited := make(chan error, 1)
	go func() {
		release2, err := s.acquire(ctx, "")
		if err == nil {
			release2()
		}
		waited <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics.QueueDepth.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// The queue is now full: the next acquire is rejected immediately.
	if _, err := s.acquire(ctx, ""); err != ErrOverloaded {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if s.Metrics.Rejected.Value("queue_full", "") != 1 {
		t.Fatal("queue_full rejection not counted")
	}
	release1()
	if err := <-waited; err != nil {
		t.Fatalf("queued acquire failed: %v", err)
	}
	if s.Metrics.QueueWait.Count() < 2 {
		t.Fatal("queue wait not observed")
	}

	// A waiter whose context expires is released with the ctx error.
	release3, err := s.acquire(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	defer release3()
	short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if _, err := s.acquire(short, ""); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}

	// Draining rejects instantly.
	s.StartDrain()
	if _, err := s.acquire(ctx, ""); err != ErrDraining {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
}

func TestServiceJoinCacheSemantics(t *testing.T) {
	s := testService(t, Config{})
	ctx := context.Background()
	req := JoinRequest{R: "r", S: "s", Eps: 0.5}

	first, err := s.Join(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanCache != "miss" {
		t.Fatalf("first join plan_cache = %q, want miss", first.PlanCache)
	}
	second, err := s.Join(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if second.PlanCache != "hit" {
		t.Fatalf("second join plan_cache = %q, want hit", second.PlanCache)
	}
	if first.Checksum != second.Checksum || first.Results != second.Results {
		t.Fatalf("results diverged across cache hit: (%d, %s) != (%d, %s)",
			first.Results, first.Checksum, second.Results, second.Checksum)
	}
	if second.BuildMillis != 0 {
		t.Fatalf("cache hit reported build time %v", second.BuildMillis)
	}
	if s.Metrics.PlanCacheHits.Value() != 1 || s.Metrics.PlanCacheMisses.Value() != 1 {
		t.Fatalf("hits/misses = %d/%d", s.Metrics.PlanCacheHits.Value(), s.Metrics.PlanCacheMisses.Value())
	}

	// A different ε is a different plan...
	third, err := s.Join(ctx, JoinRequest{R: "r", S: "s", Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if third.PlanCache != "miss" {
		t.Fatal("different eps must build a new plan")
	}
	// ...but replacing a dataset invalidates its plans entirely.
	if _, err := s.Registry.Put("r", spatialjoin.GenerateUniform(100, 9)); err != nil {
		t.Fatal(err)
	}
	s.cache.Invalidate("r")
	if got, _ := s.Join(ctx, req); got.PlanCache != "miss" {
		t.Fatal("stale plan served after dataset replacement")
	}
}

func TestServiceJoinValidation(t *testing.T) {
	s := testService(t, Config{})
	ctx := context.Background()
	if _, err := s.Join(ctx, JoinRequest{R: "nope", S: "s", Eps: 0.5}); err == nil ||
		!strings.Contains(err.Error(), "unknown dataset") {
		t.Fatalf("unknown dataset err = %v", err)
	}
	if _, err := s.Join(ctx, JoinRequest{R: "r", S: "s", Eps: -1}); err == nil ||
		!strings.Contains(err.Error(), "Eps must be positive") {
		t.Fatalf("bad eps err = %v", err)
	}
}

func TestMetricsRender(t *testing.T) {
	s := testService(t, Config{})
	if _, err := s.Join(context.Background(), JoinRequest{R: "r", S: "s", Eps: 0.5}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	s.Metrics.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE sjoind_plan_cache_misses_total counter",
		"sjoind_plan_cache_misses_total 1",
		"# TYPE sjoind_probe_seconds histogram",
		"sjoind_probe_seconds_count 1",
		"sjoind_probe_seconds_bucket{le=\"+Inf\"} 1",
		"# TYPE sjoind_requests_in_flight gauge",
		"sjoind_datasets 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	snap := s.Metrics.Snapshot()
	if snap["sjoind_plan_cache_misses_total"] != int64(1) {
		t.Fatalf("snapshot misses = %v", snap["sjoind_plan_cache_misses_total"])
	}
}

// TestServiceConcurrentJoins hammers one service from many goroutines
// mixing keys; under -race this is the serving layer's concurrency test.
func TestServiceConcurrentJoins(t *testing.T) {
	s := testService(t, Config{MaxConcurrent: 4, MaxQueue: 256, PlanCacheSize: 4})
	ctx := context.Background()
	var wg sync.WaitGroup
	sums := make([]string, 24)
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eps := 0.4
			if i%3 == 0 {
				eps = 0.6
			}
			resp, err := s.Join(ctx, JoinRequest{R: "r", S: "s", Eps: eps})
			if err != nil {
				t.Error(err)
				return
			}
			sums[i] = resp.Checksum
		}(i)
	}
	wg.Wait()
	for i := range sums {
		for j := range sums {
			if i%3 == j%3 && sums[i] != sums[j] {
				t.Fatalf("same query diverged: %s != %s", sums[i], sums[j])
			}
		}
	}
	if s.Metrics.PlanCacheMisses.Value() != 2 {
		t.Fatalf("misses = %d, want 2 (one per eps)", s.Metrics.PlanCacheMisses.Value())
	}
}
