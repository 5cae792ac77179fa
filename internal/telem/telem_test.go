package telem

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func at(sec int64) time.Time { return time.Unix(sec, 0) }

func TestTelemRollupResolutions(t *testing.T) {
	st := NewStore()
	base := int64(1_000_000) // multiple of 10; 1m bucket differs
	for i := int64(0); i < 25; i++ {
		st.Observe("lat", "a", at(base+i), float64(i))
	}
	dumps := st.Dump("lat", "a", "1s", 0)
	if len(dumps) != 1 {
		t.Fatalf("1s dumps = %d, want 1", len(dumps))
	}
	if got := len(dumps[0].Buckets); got != 25 {
		t.Fatalf("1s buckets = %d, want 25", got)
	}
	b0 := dumps[0].Buckets[0]
	if b0.Count != 1 || b0.Min != 0 || b0.Max != 0 {
		t.Fatalf("first 1s bucket = %+v", b0)
	}

	dumps = st.Dump("lat", "a", "10s", 0)
	if len(dumps) != 1 || len(dumps[0].Buckets) != 3 {
		t.Fatalf("10s dump = %+v", dumps)
	}
	b := dumps[0].Buckets[0]
	if b.Count != 10 || b.Min != 0 || b.Max != 9 || b.Sum != 45 {
		t.Fatalf("10s first bucket = %+v", b)
	}
	b = dumps[0].Buckets[2]
	if b.Count != 5 || b.Min != 20 || b.Max != 24 {
		t.Fatalf("10s last bucket = %+v", b)
	}

	dumps = st.Dump("lat", "a", "1m", 0)
	var total int64
	for _, d := range dumps {
		for _, b := range d.Buckets {
			total += b.Count
		}
	}
	if total != 25 {
		t.Fatalf("1m total count = %d, want 25", total)
	}
}

func TestTelemRingEviction(t *testing.T) {
	st := NewStore()
	keep := resolutions[0].Keep
	for i := 0; i < keep+7; i++ {
		st.Observe("g", "", at(100+int64(i)), 1)
	}
	d := st.Dump("g", "", "1s", 0)
	if len(d) != 1 || len(d[0].Buckets) != keep {
		t.Fatalf("dump = %+v", d)
	}
	first, last := d[0].Buckets[0].Start, d[0].Buckets[keep-1].Start
	if first != 107 || last != int64(100+keep+6) {
		t.Fatalf("retained window = [%d, %d], want [107, %d]", first, last, 100+keep+6)
	}
}

func TestTelemOutOfOrderObservation(t *testing.T) {
	st := NewStore()
	st.Observe("g", "", at(100), 1)
	st.Observe("g", "", at(103), 1)
	st.Observe("g", "", at(101), 7) // late, bucket never materialized: dropped
	st.Observe("g", "", at(100), 5) // late, bucket exists: folded
	d := st.Dump("g", "", "1s", 0)
	if len(d) != 1 || len(d[0].Buckets) != 2 {
		t.Fatalf("dump = %+v", d)
	}
	b := d[0].Buckets[0]
	if b.Start != 100 || b.Count != 2 || b.Max != 5 || b.Sum != 6 {
		t.Fatalf("late fold bucket = %+v", b)
	}
}

func TestTelemWindowFilter(t *testing.T) {
	st := NewStore()
	for i := int64(0); i < 10; i++ {
		st.Observe("g", "", at(200+i), 1)
	}
	d := st.Dump("g", "", "1s", 205)
	if len(d) != 1 {
		t.Fatalf("dump = %+v", d)
	}
	if first := d[0].Buckets[0].Start; first != 205 {
		t.Fatalf("windowed first start = %d, want 205", first)
	}
}

func TestTelemSeriesCap(t *testing.T) {
	st := NewStore()
	for i := 0; i < maxSeries+2; i++ {
		st.Observe("g", fmt.Sprintf("k%d", i), at(100), 1)
	}
	if st.Len() != maxSeries {
		t.Fatalf("series = %d, want %d", st.Len(), maxSeries)
	}
	if st.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", st.Dropped())
	}
}

func TestTelemKeyAliasing(t *testing.T) {
	st := NewStore()
	// Without length prefixing these two (name, key) pairs collide.
	st.Observe("ab", "c", at(100), 1)
	st.Observe("a", "bc", at(100), 1)
	if st.Len() != 2 {
		t.Fatalf("series = %d, want 2 (aliased)", st.Len())
	}
}

func TestTelemSnapshotRoundTrip(t *testing.T) {
	h := NewHub(Config{})
	base := time.Now().Add(-30 * time.Second)
	for i := 0; i < 20; i++ {
		h.ObserveJoin("acme", base.Add(time.Duration(i)*time.Second), 0.01*float64(i+1))
	}
	h.Events.Append(Event{UnixMS: base.UnixMilli(), Kind: EventStragglerSpike, Message: "x"})
	blob, err := h.MarshalSnapshot()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	h2 := NewHub(Config{})
	if err := h2.RestoreSnapshot(blob); err != nil {
		t.Fatalf("restore: %v", err)
	}
	d1 := h.Store.Dump(SeriesJoinLatency, "acme", "1s", 0)
	d2 := h2.Store.Dump(SeriesJoinLatency, "acme", "1s", 0)
	if len(d1) != 1 || len(d2) != 1 || len(d1[0].Buckets) != len(d2[0].Buckets) {
		t.Fatalf("bucket mismatch: %d vs %d dumps", len(d1), len(d2))
	}
	for i := range d1[0].Buckets {
		if d1[0].Buckets[i] != d2[0].Buckets[i] {
			t.Fatalf("bucket %d: %+v vs %+v", i, d1[0].Buckets[i], d2[0].Buckets[i])
		}
	}
	if evs := h2.Events.Recent(0); len(evs) != 1 || evs[0].Kind != EventStragglerSpike {
		t.Fatalf("restored events = %+v", evs)
	}
}

// TestTelemSnapshotResolutionDrift restores a persisted snapshot taken
// under another resolution set (2s buckets): it must refold into the
// store's own rings.
func TestTelemSnapshotResolutionDrift(t *testing.T) {
	var ring []Bucket
	for i := int64(0); i < 10; i++ {
		ring = append(ring, Bucket{Start: 1000 + 2*i, Min: 1, Max: 2, Sum: 3, Count: 2})
	}
	blob, err := json.Marshal(hubSnap{Store: storeSnap{
		Resolutions: []Resolution{{Name: "2s", Step: 2, Keep: 50}},
		Series:      []seriesSnap{{Name: "g", Rings: [][]Bucket{ring}}},
	}})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	h2 := NewHub(Config{})
	if err := h2.RestoreSnapshot(blob); err != nil {
		t.Fatalf("restore: %v", err)
	}
	d := h2.Store.Dump("g", "", "10s", 0)
	if len(d) != 1 || len(d[0].Buckets) != 2 {
		t.Fatalf("refolded dump = %+v", d)
	}
	var total int64
	for _, b := range d[0].Buckets {
		total += b.Count
	}
	if total != 20 {
		t.Fatalf("refolded total = %d, want 20", total)
	}
}

func TestTelemMergeSeries(t *testing.T) {
	a := []SeriesDump{{
		Name: "lat", Key: "t", Res: "1s", Step: 1,
		Buckets: []Bucket{{Start: 10, Min: 1, Max: 2, Sum: 3, Count: 2}},
	}}
	b := []SeriesDump{{
		Name: "lat", Key: "t", Res: "1s", Step: 1,
		Buckets: []Bucket{
			{Start: 10, Min: 0.5, Max: 5, Sum: 5.5, Count: 2},
			{Start: 9, Min: 1, Max: 1, Sum: 1, Count: 1},
		},
	}, {
		Name: "other", Key: "", Res: "1s", Step: 1,
		Buckets: []Bucket{{Start: 11, Min: 1, Max: 1, Sum: 1, Count: 1}},
	}}
	out := MergeSeries(a, b)
	if len(out) != 2 {
		t.Fatalf("merged series = %d, want 2", len(out))
	}
	m := out[0]
	if m.Name != "lat" || len(m.Buckets) != 2 {
		t.Fatalf("merged = %+v", m)
	}
	if m.Buckets[0].Start != 9 || m.Buckets[1].Start != 10 {
		t.Fatalf("buckets not sorted: %+v", m.Buckets)
	}
	got := m.Buckets[1]
	if got.Min != 0.5 || got.Max != 5 || got.Sum != 8.5 || got.Count != 4 {
		t.Fatalf("merged bucket = %+v", got)
	}
}

func TestTelemPercentileInterpolation(t *testing.T) {
	bounds := []float64{1, 2, 4}
	counts := []int64{0, 100, 0, 0} // everything in (1, 2]
	p50 := PercentileFromBuckets(bounds, counts, 0.50)
	if p50 < 1.49 || p50 > 1.51 {
		t.Fatalf("p50 = %g, want ~1.5", p50)
	}
	p99 := PercentileFromBuckets(bounds, counts, 0.99)
	if p99 < 1.98 || p99 > 2 {
		t.Fatalf("p99 = %g, want ~1.99", p99)
	}
	// Overflow bucket clamps to the top bound.
	if got := PercentileFromBuckets(bounds, []int64{0, 0, 0, 10}, 0.5); got != 4 {
		t.Fatalf("overflow percentile = %g, want 4", got)
	}
	if got := PercentileFromBuckets(bounds, []int64{0, 0, 0, 0}, 0.5); got != 0 {
		t.Fatalf("empty percentile = %g, want 0", got)
	}
}

func TestTelemSLOTracking(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{Objective: 0.9})
	now := time.Unix(5000, 0)
	for i := 0; i < 90; i++ {
		tr.ObserveLatency("acme", now, 0.02)
	}
	for i := 0; i < 10; i++ {
		tr.ObserveError("acme", now)
	}
	sts := tr.Status(now)
	if len(sts) != 1 {
		t.Fatalf("status rows = %d", len(sts))
	}
	st := sts[0]
	if st.Tenant != "acme" || st.Total != 100 || st.Errors != 10 {
		t.Fatalf("status = %+v", st)
	}
	if math.Abs(st.ErrorRate-0.10) > 1e-9 {
		t.Fatalf("error rate = %g", st.ErrorRate)
	}
	// 10% errors against a 10% budget = burn rate 1.
	if math.Abs(st.BurnRate-1.0) > 1e-9 {
		t.Fatalf("burn = %g, want 1", st.BurnRate)
	}
	if st.P50Millis <= 10 || st.P50Millis > 25 {
		t.Fatalf("p50 = %g ms, want in (10, 25]", st.P50Millis)
	}
	// Outside the window the burn decays to 0 but totals persist.
	later := now.Add(2 * sloWindow)
	st = tr.Status(later)[0]
	if st.BurnRate != 0 || st.WindowTotal != 0 {
		t.Fatalf("post-window status = %+v", st)
	}
	if st.Total != 100 {
		t.Fatalf("lifetime total lost: %+v", st)
	}
}

func TestTelemMergeSLO(t *testing.T) {
	bounds := []float64{1, 2}
	a := []SLOStatus{{
		Tenant: "t", Objective: 0.9, Total: 50, Errors: 5,
		WindowTotal: 50, WindowErrors: 5, WindowSeconds: 60,
		LatencyBounds: bounds, LatencyCounts: []int64{50, 0, 0},
		LatencySum: 10, LatencyCount: 50,
	}}
	b := []SLOStatus{{
		Tenant: "t", Objective: 0.9, Total: 50, Errors: 15,
		WindowTotal: 50, WindowErrors: 15, WindowSeconds: 60,
		LatencyBounds: bounds, LatencyCounts: []int64{0, 50, 0},
		LatencySum: 80, LatencyCount: 50,
	}}
	out := MergeSLO(a, b)
	if len(out) != 1 {
		t.Fatalf("merged rows = %d", len(out))
	}
	m := out[0]
	if m.Total != 100 || m.Errors != 20 {
		t.Fatalf("merged = %+v", m)
	}
	if math.Abs(m.ErrorRate-0.2) > 1e-9 {
		t.Fatalf("error rate = %g", m.ErrorRate)
	}
	// 20% window errors / 10% budget = burn 2.
	if math.Abs(m.BurnRate-2.0) > 1e-9 {
		t.Fatalf("burn = %g", m.BurnRate)
	}
	// Half the traffic <=1s, half in (1,2]: p50 at the boundary, p99 near 2.
	if m.P50Millis > 1000+1e-6 || m.P50Millis < 900 {
		t.Fatalf("merged p50 = %g ms", m.P50Millis)
	}
	if m.P99Millis < 1900 {
		t.Fatalf("merged p99 = %g ms", m.P99Millis)
	}
}

func TestTelemEventLogBounded(t *testing.T) {
	l := NewEventLog()
	n := eventCap + 6
	for i := 0; i < n; i++ {
		l.Append(Event{UnixMS: int64(i), Kind: "k"})
	}
	evs := l.Recent(0)
	if len(evs) != eventCap {
		t.Fatalf("retained = %d, want %d", len(evs), eventCap)
	}
	if evs[0].UnixMS != 6 || evs[eventCap-1].UnixMS != int64(n-1) {
		t.Fatalf("retained window = [%d, %d]", evs[0].UnixMS, evs[eventCap-1].UnixMS)
	}
	if l.Total() != int64(n) {
		t.Fatalf("total = %d, want %d", l.Total(), n)
	}
	if got := l.Recent(2); len(got) != 2 || got[1].UnixMS != int64(n-1) {
		t.Fatalf("recent(2) = %+v", got)
	}
}

func TestTelemDetectorStragglerSpike(t *testing.T) {
	log := NewEventLog()
	d := NewDetector(DetectorConfig{StragglerRatio: 3}, log)
	now := time.Unix(1000, 0)
	d.ObserveSkew("t", "r:s:0.01", now, 1.5, 100)
	if log.Total() != 0 {
		t.Fatalf("ratio below threshold fired: %+v", log.Recent(0))
	}
	d.ObserveSkew("t", "r:s:0.01", now, 4.2, 100)
	evs := log.Recent(0)
	if len(evs) != 1 || evs[0].Kind != EventStragglerSpike || evs[0].Value != 4.2 {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Series != "r:s:0.01" || evs[0].Tenant != "t" {
		t.Fatalf("event attribution = %+v", evs[0])
	}
}

func TestTelemDetectorReplicationJump(t *testing.T) {
	log := NewEventLog()
	d := NewDetector(DetectorConfig{}, log)
	now := time.Unix(1000, 0)
	key := "r:s:0.5"
	for i := 0; i < 3; i++ {
		d.ObserveSkew("t", key, now, 1, 1000)
	}
	// Warmup complete; 10x the trailing mean must fire.
	d.ObserveSkew("t", key, now, 1, 10000)
	evs := log.Recent(0)
	if len(evs) != 1 || evs[0].Kind != EventReplicationJump {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Value != 10000 {
		t.Fatalf("event value = %+v", evs[0])
	}
	// A different key has its own trail — no cross-contamination.
	d.ObserveSkew("t", "other:s:1", now, 1, 50000)
	if log.Total() != 1 {
		t.Fatalf("fresh key fired jump: %+v", log.Recent(0))
	}
}

func TestTelemDetectorBurnEdgeTriggered(t *testing.T) {
	log := NewEventLog()
	d := NewDetector(DetectorConfig{}, log)
	now := time.Unix(1000, 0)
	d.ObserveBurn("t", now, 3)
	d.ObserveBurn("t", now, 4) // still burning: no second event
	if log.Total() != 1 {
		t.Fatalf("burn events = %d, want 1 (edge-triggered)", log.Total())
	}
	d.ObserveBurn("t", now, 1.5) // above half threshold: stays latched
	d.ObserveBurn("t", now, 3)
	if log.Total() != 1 {
		t.Fatalf("re-fired before re-arm: %d", log.Total())
	}
	d.ObserveBurn("t", now, 0.5) // below half threshold: re-arms
	d.ObserveBurn("t", now, 3)
	if log.Total() != 2 {
		t.Fatalf("burn events = %d, want 2 after re-arm", log.Total())
	}
}

func TestTelemHubObserveFlow(t *testing.T) {
	h := NewHub(Config{
		SLO:      SLOConfig{Objective: 0.9},
		Detector: DetectorConfig{StragglerRatio: 2},
	})
	now := time.Now()
	for i := 0; i < 8; i++ {
		h.ObserveJoin("acme", now, 0.05)
	}
	h.ObserveSkew("acme", JoinKey("r", "s", 0.01), now, 5.0, 4096, 128)
	for i := 0; i < 8; i++ {
		h.ObserveJoinError("noisy", now)
	}
	if d := h.Store.Dump(SeriesJoinLatency, "acme", "1s", 0); len(d) == 0 {
		t.Fatal("no latency series")
	}
	if d := h.Store.Dump(SeriesStragglerRatio, "r:s:0.01", "1s", 0); len(d) == 0 {
		t.Fatal("no straggler series")
	}
	kinds := map[string]int{}
	for _, e := range h.Events.Recent(0) {
		kinds[e.Kind]++
	}
	if kinds[EventStragglerSpike] != 1 {
		t.Fatalf("straggler events = %+v", kinds)
	}
	if kinds[EventBudgetBurn] != 1 {
		t.Fatalf("burn events = %+v", kinds)
	}
	var noisy *SLOStatus
	for _, st := range h.SLO.Status(now) {
		if st.Tenant == "noisy" {
			s := st
			noisy = &s
		}
	}
	if noisy == nil || noisy.BurnRate < burnThreshold {
		t.Fatalf("noisy SLO = %+v", noisy)
	}
}

func TestTelemHubSamplerLoop(t *testing.T) {
	h := NewHub(Config{})
	var mu sync.Mutex
	ticks := 0
	h.Start(5*time.Millisecond, func(sample func(name, key string, v float64)) {
		mu.Lock()
		ticks++
		mu.Unlock()
		sample("queue_depth", "", 7)
	})
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := ticks
		mu.Unlock()
		if n >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.Stop()
	h.Stop() // idempotent
	if d := h.Store.Dump("queue_depth", "", "1s", 0); len(d) == 0 {
		t.Fatal("sampler recorded nothing")
	}
}

// TestTelemRuntimeRender checks a new registry exposes the Go runtime
// families on both Render and Snapshot.
func TestTelemRuntimeRender(t *testing.T) {
	r := NewRegistry()
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE go_goroutines gauge",
		"go_goroutines ",
		"# TYPE go_memstats_heap_alloc_bytes gauge",
		"# TYPE go_gc_pause_seconds_total counter",
		"# TYPE go_gomaxprocs gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("runtime exposition missing %q:\n%s", want, out)
		}
	}
	vars := r.Snapshot()
	if vars["go_goroutines"].(int) < 1 {
		t.Fatalf("vars = %+v", vars)
	}
	if vars["go_gomaxprocs"].(int) < 1 {
		t.Fatalf("vars = %+v", vars)
	}
}

func TestTelemConcurrentObserve(t *testing.T) {
	h := NewHub(Config{})
	var wg sync.WaitGroup
	now := time.Now()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g%3)
			for i := 0; i < 200; i++ {
				h.ObserveJoin(tenant, now, 0.001)
				h.ObserveSkew(tenant, "r:s:1", now, 1.0, 64, 16)
				if i%10 == 0 {
					h.ObserveJoinError(tenant, now)
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, st := range h.SLO.Status(now) {
		total += st.Total
	}
	if want := int64(8 * (200 + 20)); total != want {
		t.Fatalf("total SLO observations = %d, want %d", total, want)
	}
}
