package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"spatialjoin"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/service"
	"spatialjoin/internal/textio"
	"spatialjoin/internal/tuple"
)

// Request kinds of the serve-mix schedule.
const (
	reqHot     = iota // count join at one of the four hot ε: a plan-cache hit
	reqLadder         // count join at the next ladder ε: always a miss
	reqPut            // re-upload of the small dataset
	reqCollect        // collecting join on the small dataset, right after its upload
)

// serveClients is the number of keep-alive HTTP clients, one per core
// of the two-core box the load is sized for.
const serveClients = 2

// ladderLen exceeds the service's 32-plan LRU, so by the time the
// ladder comes round again its plan has been evicted.
const ladderLen = 48

type request struct {
	kind    int
	eps     float64 // joins
	dataset string  // uploads
}

// serveBench drives an in-process sjoind (service.New behind a loopback
// HTTP server) with a seeded mix of cache-hit joins, cache-miss joins,
// uploads and collecting joins, from two closed-loop clients.
type serveBench struct {
	cfg          config
	nBig, nSmall int

	tiger, gauss, small []tuple.Tuple
	bodies              map[string][]byte // upload bodies by dataset name
	hot, ladder         []float64
	schedule            []request
	next                atomic.Int64 // next schedule slot

	svc    *service.Service
	srv    *httptest.Server
	client *http.Client

	want      map[float64]answer // (tiger, gauss) by ε
	wantSmall answer             // (small, gauss) at hot[1]
	hitP50    float64            // untraced hit median, base of service.http_overhead_ms
}

func (b *serveBench) setup() error {
	rng := rand.New(rand.NewSource(b.cfg.seed))
	// The server numbers uploaded points from 0 per dataset.
	b.tiger, _ = pointSet(kindTiger, b.nBig, rng, 0)
	b.gauss, _ = pointSet(kindGauss, b.nBig, rng, 0)
	b.small, _ = pointSet(kindTiger, b.nSmall, rng, 0)
	b.bodies = map[string][]byte{}
	for name, ts := range map[string][]tuple.Tuple{"tiger": b.tiger, "gauss": b.gauss, "small": b.small} {
		var buf bytes.Buffer
		if err := textio.Write(&buf, ts); err != nil {
			return err
		}
		b.bodies[name] = buf.Bytes()
	}
	b.hot = nil
	for _, e := range []float64{0.47, 0.49, 0.51, 0.53} {
		b.hot = append(b.hot, b.cfg.eps(e))
	}
	b.ladder = nil
	for k := 0; k < ladderLen; k++ {
		b.ladder = append(b.ladder, b.cfg.eps(0.25+0.008*float64(k)))
	}
	// Shares of exactly 80/10/5/5 in every block of twenty requests — 16
	// hot, 2 ladder, 1 put followed at once by its collecting join — in
	// an order the seed shuffles, so that a window of any length sees the
	// same mix and per-request averages do not depend on a lucky draw.
	b.schedule = nil
	step := 0
	for len(b.schedule) < 200*20 {
		kinds := make([]int, 19) // zero value: reqHot
		kinds[16], kinds[17], kinds[18] = reqLadder, reqLadder, reqPut
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			switch k {
			case reqHot:
				b.schedule = append(b.schedule, request{kind: reqHot, eps: b.hot[rng.Intn(len(b.hot))]})
			case reqLadder:
				b.schedule = append(b.schedule, request{kind: reqLadder, eps: b.ladder[step%ladderLen]})
				step++
			default:
				b.schedule = append(b.schedule, request{kind: reqPut, dataset: "small"}, request{kind: reqCollect, eps: b.hot[1]})
			}
		}
	}
	b.next.Store(0)

	b.svc = service.New(service.Config{})
	b.srv = httptest.NewServer(b.svc.Handler())
	b.client = b.srv.Client()
	for _, name := range []string{"tiger", "gauss", "small"} {
		if out := b.do(request{kind: reqPut, dataset: name}); out.err != nil {
			return out.err
		}
	}
	// Warm-up: build the hot plans and fill the plan LRU with ladder
	// plans, so the window starts in the steady state it stays in.
	for _, e := range b.hot {
		if out := b.do(request{kind: reqHot, eps: e}); out.err != nil {
			return out.err
		}
	}
	for k := 0; k < 28; k++ {
		if out := b.do(request{kind: reqLadder, eps: b.ladder[(ladderLen-28+k)%ladderLen]}); out.err != nil {
			return out.err
		}
	}
	return nil
}

func (b *serveBench) teardown() {
	if b.srv != nil {
		b.srv.Close()
		_ = b.svc.Close() // in-memory service: nothing to flush
		b.srv, b.svc = nil, nil
	}
}

func (b *serveBench) oracle() error {
	b.want = oracleLadder(b.tiger, b.gauss, append(append([]float64{}, b.hot...), b.ladder...))
	b.wantSmall = oracleJoin(b.small, b.gauss, b.hot[1])
	if b.cfg.corrupt {
		for e, a := range b.want {
			a.n++
			b.want[e] = a
		}
		b.wantSmall.n++
	}
	return nil
}

// reply is what one request came back with.
type reply struct {
	err       error
	status    int
	bytes     int
	took      time.Duration
	planCache string
	buildMs   float64
	probeMs   float64
	ok        bool // 2xx and, for joins, the oracle's answer
}

// do sends one request and checks the reply.
func (b *serveBench) do(rq request) reply {
	var url string
	var body []byte
	switch rq.kind {
	case reqPut:
		url, body = b.srv.URL+"/v1/datasets?name="+rq.dataset, b.bodies[rq.dataset]
	default:
		wire := map[string]any{
			"r": "tiger", "s": "gauss", "eps": rq.eps, "algorithm": "lpib", "use_lpt": true,
			"workers": simWorkers, "partitions": simPartitions, "seed": b.cfg.seed,
		}
		url = b.srv.URL + "/v1/join/count"
		if rq.kind == reqCollect {
			wire["r"], wire["collect"], wire["limit"] = "small", true, 1000
			url = b.srv.URL + "/v1/join"
		}
		body, _ = json.Marshal(wire) // a map of plain values cannot fail to encode
	}
	t0 := time.Now()
	resp, err := b.client.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := reply{err: err, status: resp.StatusCode, bytes: len(raw), took: time.Since(t0)}
	if err != nil || resp.StatusCode/100 != 2 {
		if err == nil {
			out.err = fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
		}
		return out
	}
	if rq.kind == reqPut {
		out.ok = true
		return out
	}
	var jr service.JoinResponse
	if out.err = json.Unmarshal(raw, &jr); out.err != nil {
		return out
	}
	out.planCache, out.buildMs, out.probeMs = jr.PlanCache, jr.BuildMillis, jr.ProbeMillis
	want, known := b.want[rq.eps]
	if rq.kind == reqCollect {
		want, known = b.wantSmall, true
		if int64(len(jr.Pairs)) != min(want.n, 1000) {
			known = false
		}
	}
	// Before the oracle exists (warm-up) only the transport is checked.
	out.ok = b.want == nil || (known && jr.Results == want.n && jr.Checksum == fmt.Sprintf("%016x", want.sum))
	return out
}

func (b *serveBench) window(d time.Duration) (*tally, error) {
	t := newTally()
	var mu sync.Mutex
	var builds, probes, sizes []float64
	rejected := 0
	hits0, miss0 := b.svc.Metrics.PlanCacheHits.Value(), b.svc.Metrics.PlanCacheMisses.Value()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				rq := b.schedule[int(b.next.Add(1)-1)%len(b.schedule)]
				out := b.do(rq)
				mu.Lock()
				t.attempted++
				if !out.ok {
					t.failed++
					if out.status == http.StatusTooManyRequests {
						rejected++
					}
				} else {
					t.ops++
					switch {
					case rq.kind == reqPut:
						t.observe("put", out.took)
					case rq.kind == reqCollect:
						t.observe("collect", out.took)
					case out.planCache == "hit":
						t.observe("op", out.took)
						probes = append(probes, out.probeMs)
						sizes = append(sizes, float64(out.bytes))
					default:
						t.observe("miss", out.took)
						builds = append(builds, out.buildMs)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	t.elapsed = time.Since(start)
	b.hitP50 = median(t.lat["op"])
	hits := b.svc.Metrics.PlanCacheHits.Value() - hits0
	misses := b.svc.Metrics.PlanCacheMisses.Value() - miss0
	t.vals["service.req_miss_p50_ms"] = median(t.lat["miss"])
	t.vals["service.put_p50_ms"] = median(t.lat["put"])
	t.vals["service.collect_p50_ms"] = median(t.lat["collect"])
	t.vals["service.plan_build_ms"] = median(builds)
	t.vals["service.resp_bytes_p50"] = median(sizes)
	t.vals["service.rejected"] = float64(rejected)
	t.vals["core.execute_ms"] = median(probes)
	if hits+misses > 0 {
		t.vals["service.cache_hit_share"] = float64(hits) / float64(hits+misses)
	}
	return t, nil
}

// layers measures what the HTTP path adds to a join: the same hit
// through Service.Join without HTTP, a /metrics scrape, the upload
// parser, and — since the service traces every join — what a tracer
// costs one probe of the hot plan.
func (b *serveBench) layers(lp *layerPass) error {
	var errs []error
	hot := service.JoinRequest{
		R: "tiger", S: "gauss", Eps: b.hot[1], Algorithm: spatialjoin.AdaptiveLPiB, UseLPT: true,
		Workers: simWorkers, Partitions: simPartitions, Seed: b.cfg.seed,
	}
	world := datagen.World()
	plan, err := spatialjoin.Prepare(b.tiger, b.gauss, spatialjoin.Options{
		Eps: b.hot[1], Algorithm: spatialjoin.AdaptiveLPiB, UseLPT: true,
		Workers: simWorkers, Partitions: simPartitions, Seed: b.cfg.seed, Bounds: &world,
	})
	if err != nil {
		return err
	}
	var plain, traced []float64
	lp.reps(func() {
		lp.timed("service.join_direct_hit", func() {
			resp, err := b.svc.Join(context.Background(), hot)
			if err == nil && resp.PlanCache != "hit" {
				err = fmt.Errorf("direct join at a hot ε was a plan-cache %s", resp.PlanCache)
			}
			errs = append(errs, err)
		})
		lp.timed("service.metrics_scrape", func() {
			resp, err := b.client.Get(b.srv.URL + "/metrics")
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			errs = append(errs, err)
		})
		d := lp.timed("textio.parse", func() {
			_, err := textio.Read(bytes.NewReader(b.bodies["small"]), 0)
			errs = append(errs, err)
		})
		lp.sample("textio.parse_mb_per_s", float64(len(b.bodies["small"]))/(1<<20)/d.Seconds())
		for i := 0; i < 4; i++ {
			plain = append(plain, lp.timed("core.probe_untraced", func() {
				_, err := plan.Execute(spatialjoin.ExecOptions{})
				errs = append(errs, err)
			}).Seconds())
			traced = append(traced, lp.timed("core.probe_traced", func() {
				tr := obs.New()
				_, err := plan.Execute(spatialjoin.ExecOptions{Trace: tr})
				errs = append(errs, err)
				lp.set("obs.spans_per_join", float64(tr.Len()))
			}).Seconds())
		}
	})
	lp.set("obs.trace_overhead_pct", (median(traced)-median(plain))/median(plain)*100)
	lp.set("service.http_overhead_ms", b.hitP50-lp.spanMs("service.join_direct_hit"))
	return errors.Join(errs...)
}
