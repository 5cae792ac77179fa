package stream_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	spatialjoin "spatialjoin"
	"spatialjoin/internal/agreements"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/stream"
	"spatialjoin/internal/tuple"
)

// harness mirrors an engine with a model: the live points per set and the
// pair set accumulated from the engine's own deltas. All coordinates are
// kept on a 1/16 lattice so every squared distance is exactly
// representable and ε-boundary comparisons are exact — the property tests
// deliberately generate pairs at distance exactly ε and points exactly on
// cell borders.
type harness struct {
	t       *testing.T
	eng     *stream.Engine
	sub     *stream.Subscription
	live    [2]map[int64]tuple.Tuple
	pairs   map[tuple.Pair]int
	bounds  geom.Rect
	eps     float64
	gridRes float64
}

func newHarness(t *testing.T, cfg stream.Config) *harness {
	t.Helper()
	eng, err := stream.New(cfg)
	if err != nil {
		t.Fatalf("stream.New: %v", err)
	}
	h := &harness{
		t:       t,
		eng:     eng,
		sub:     eng.Subscribe(),
		live:    [2]map[int64]tuple.Tuple{{}, {}},
		pairs:   map[tuple.Pair]int{},
		bounds:  cfg.Bounds,
		eps:     cfg.Eps,
		gridRes: cfg.GridRes,
	}
	t.Cleanup(h.sub.Close)
	return h
}

func (h *harness) apply(batch []stream.Mutation) {
	for _, m := range batch {
		if m.Delete {
			delete(h.live[m.Set], m.Tuple.ID)
		} else {
			h.live[m.Set][m.Tuple.ID] = m.Tuple
		}
	}
	h.eng.Apply(batch)
	h.drain()
}

// drain folds queued deltas into the accumulated pair set, checking that
// no pair is ever added twice or removed below zero — the duplicate-
// freeness half of Lemma 4.8, observed on the delta stream itself.
func (h *harness) drain() {
	h.t.Helper()
	for {
		d, ok := h.sub.TryNext()
		if !ok {
			return
		}
		p := tuple.Pair{RID: d.RID, SID: d.SID}
		h.pairs[p] += int(d.Op)
		if c := h.pairs[p]; c != 0 && c != 1 {
			h.t.Fatalf("delta stream drove pair %+v to count %d", p, c)
		}
	}
}

func (h *harness) liveSlice(set tuple.Set) []tuple.Tuple {
	out := make([]tuple.Tuple, 0, len(h.live[set]))
	for _, t := range h.live[set] {
		out = append(out, t)
	}
	return out
}

func sortedPairs(ps []tuple.Pair) []tuple.Pair {
	out := append([]tuple.Pair(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].RID != out[j].RID {
			return out[i].RID < out[j].RID
		}
		return out[i].SID < out[j].SID
	})
	return out
}

func (h *harness) accumulated() []tuple.Pair {
	var out []tuple.Pair
	for p, c := range h.pairs {
		if c == 1 {
			out = append(out, p)
		}
	}
	return out
}

func diffPairs(a, b []tuple.Pair) string {
	as, bs := sortedPairs(a), sortedPairs(b)
	if len(as) == len(bs) {
		same := true
		for i := range as {
			if as[i] != bs[i] {
				same = false
				break
			}
		}
		if same {
			return ""
		}
	}
	inA := map[tuple.Pair]bool{}
	for _, p := range as {
		inA[p] = true
	}
	inB := map[tuple.Pair]bool{}
	for _, p := range bs {
		inB[p] = true
	}
	var onlyA, onlyB []tuple.Pair
	for _, p := range as {
		if !inB[p] {
			onlyA = append(onlyA, p)
		}
	}
	for _, p := range bs {
		if !inA[p] {
			onlyB = append(onlyB, p)
		}
	}
	return fmt.Sprintf("sizes %d vs %d, only-left %v, only-right %v", len(as), len(bs), onlyA, onlyB)
}

// checkQuiescent asserts the four-way equality at a quiescent point:
// accumulated deltas == engine snapshot == brute force == batch Join.
func (h *harness) checkQuiescent(withBatchJoin bool) {
	h.t.Helper()
	rs, ss := h.liveSlice(tuple.R), h.liveSlice(tuple.S)
	oracle := spatialjoin.BruteForce(rs, ss, h.eps)
	if d := diffPairs(h.accumulated(), oracle); d != "" {
		h.t.Fatalf("accumulated deltas != brute force: %s", d)
	}
	if d := diffPairs(h.eng.CurrentPairs(), oracle); d != "" {
		h.t.Fatalf("CurrentPairs != brute force: %s", d)
	}
	if withBatchJoin && len(rs) > 0 && len(ss) > 0 {
		rep, err := spatialjoin.Join(rs, ss, spatialjoin.Options{
			Eps:       h.eps,
			Algorithm: spatialjoin.AdaptiveLPiB,
			Collect:   true,
			Bounds:    &h.bounds,
			GridRes:   h.gridRes,
		})
		if err != nil {
			h.t.Fatalf("batch Join: %v", err)
		}
		if d := diffPairs(rep.Pairs, oracle); d != "" {
			h.t.Fatalf("batch Join != brute force: %s", d)
		}
	}
}

// latticeCoord returns a coordinate in [0, span] on the 1/16 lattice.
func latticeCoord(rng *rand.Rand, span int) float64 {
	return float64(rng.Intn(span*16+1)) / 16
}

// TestStreamQuiescentEquivalence is the core property test: random
// interleavings of inserts, moves, and deletes over both sets — biased
// toward cell borders and exact-ε partners — must, at every quiescent
// point, match a from-scratch brute-force join (and periodically the full
// batch pipeline) exactly. Rebalancing runs every 50 mutations so
// agreement flips and migrations are exercised mid-stream.
//
// GridRes is 2.5 rather than the minimum 2 so the closed ε-strips of
// opposite borders are disjoint and the lattice's exact-ε/exact-border
// configurations are all handled (see Config.GridRes).
func TestStreamQuiescentEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { quiescentEquivalence(t, seed) })
	}
}

func quiescentEquivalence(t *testing.T, seed int64) {
	bounds := geom.NewRect(0, 0, 10, 10)
	h := newHarness(t, stream.Config{
		Eps:            0.5,
		Bounds:         bounds,
		GridRes:        2.5,
		Policy:         agreements.LPiB,
		RebalanceEvery: 50,
	})
	rng := rand.New(rand.NewSource(seed))
	nextID := [2]int64{1, 1}

	randomPoint := func() geom.Point {
		switch rng.Intn(4) {
		case 0: // exactly on a cell border (tile = 1)
			return geom.Point{X: float64(rng.Intn(11)), Y: latticeCoord(rng, 10)}
		case 1:
			return geom.Point{X: latticeCoord(rng, 10), Y: float64(rng.Intn(11))}
		default:
			return geom.Point{X: latticeCoord(rng, 10), Y: latticeCoord(rng, 10)}
		}
	}
	// exactEpsPartner returns a point at distance exactly ε from a live
	// point of the other set, when one exists.
	exactEpsPartner := func(set tuple.Set) (geom.Point, bool) {
		for _, other := range h.live[set.Other()] {
			p := other.Pt
			switch rng.Intn(4) {
			case 0:
				p.X += 0.5
			case 1:
				p.X -= 0.5
			case 2:
				p.Y += 0.5
			default:
				p.Y -= 0.5
			}
			if bounds.Contains(p) {
				return p, true
			}
		}
		return geom.Point{}, false
	}
	anyLive := func(set tuple.Set) (int64, bool) {
		for id := range h.live[set] {
			return id, true
		}
		return 0, false
	}

	mutation := func() stream.Mutation {
		set := tuple.Set(rng.Intn(2))
		switch roll := rng.Intn(10); {
		case roll < 5: // insert a fresh point
			pt := randomPoint()
			if rng.Intn(3) == 0 {
				if p, ok := exactEpsPartner(set); ok {
					pt = p
				}
			}
			id := nextID[set]
			nextID[set]++
			return stream.Mutation{Set: set, Tuple: tuple.Tuple{ID: id, Pt: pt}}
		case roll < 8: // move (or re-insert) an existing id
			if id, ok := anyLive(set); ok {
				return stream.Mutation{Set: set, Tuple: tuple.Tuple{ID: id, Pt: randomPoint()}}
			}
			id := nextID[set]
			nextID[set]++
			return stream.Mutation{Set: set, Tuple: tuple.Tuple{ID: id, Pt: randomPoint()}}
		default: // delete
			if id, ok := anyLive(set); ok {
				return stream.Mutation{Set: set, Delete: true, Tuple: tuple.Tuple{ID: id}}
			}
			return stream.Mutation{Set: set, Delete: true, Tuple: tuple.Tuple{ID: 1 << 40}}
		}
	}

	const rounds = 120
	for round := 0; round < rounds; round++ {
		batch := make([]stream.Mutation, 1+rng.Intn(8))
		for i := range batch {
			batch[i] = mutation()
		}
		h.apply(batch)
		if round%10 == 9 {
			h.checkQuiescent(round%40 == 39)
		}
	}
	h.checkQuiescent(true)

	c := h.eng.Counters()
	if c.RebalanceRuns == 0 {
		t.Fatalf("expected automatic rebalance runs, got none (counters %+v)", c)
	}
	if c.LiveR != int64(len(h.live[tuple.R])) || c.LiveS != int64(len(h.live[tuple.S])) {
		t.Fatalf("live gauges %d/%d disagree with model %d/%d",
			c.LiveR, c.LiveS, len(h.live[tuple.R]), len(h.live[tuple.S]))
	}
}

// runSkewDrift builds a stream with an optional 600-point "far block" in
// the opposite corner of the space, then injects a skew drift into a tight
// band straddling the y=1.25 border of cells (1,0)/(1,1) (tile = 1.25):
// the band starts R-heavy, an explicit rebalance locks in the agreements,
// then most R points are deleted and S floods in, inverting the local
// density ratio so the policy's decision for the band's pairs flips. It
// returns the result of the post-drift rebalance and the harness.
func runSkewDrift(t *testing.T, withFarBlock bool) (stream.BatchResult, *harness) {
	t.Helper()
	h := newHarness(t, stream.Config{
		Eps:            0.5,
		Bounds:         geom.NewRect(0, 0, 10, 10),
		GridRes:        2.5,
		Policy:         agreements.LPiB,
		RebalanceEvery: -1, // rebalance only when the test says so
	})
	if withFarBlock {
		rng := rand.New(rand.NewSource(9))
		var far []stream.Mutation
		for i := 0; i < 600; i++ {
			far = append(far, stream.Mutation{Set: tuple.Set(i % 2), Tuple: tuple.Tuple{
				ID: int64(i + 1),
				Pt: geom.Point{X: 6 + latticeCoord(rng, 4), Y: 6 + latticeCoord(rng, 4)},
			}})
		}
		h.apply(far)
	}

	// Region ids and coordinates are identical with and without the far
	// block, so any difference in migration counts between the two runs
	// can only come from far-block points being migrated.
	rng := rand.New(rand.NewSource(7))
	id := int64(10_000)
	region := func(set tuple.Set, n int) []stream.Mutation {
		var ms []stream.Mutation
		for i := 0; i < n; i++ {
			id++
			pt := geom.Point{X: 1.75 + latticeCoord(rng, 1)*0.5, Y: 1.0625 + latticeCoord(rng, 1)*0.875}
			ms = append(ms, stream.Mutation{Set: set, Tuple: tuple.Tuple{ID: id, Pt: pt}})
		}
		return ms
	}
	rIDs0 := id + 1
	h.apply(region(tuple.R, 120))
	rIDs1 := id
	h.apply(region(tuple.S, 4))
	h.eng.Rebalance()
	h.checkQuiescent(false)

	var drift []stream.Mutation
	for rid := rIDs0; rid <= rIDs1; rid++ {
		drift = append(drift, stream.Mutation{Set: tuple.R, Delete: true, Tuple: tuple.Tuple{ID: rid}})
	}
	h.apply(drift)
	h.apply(region(tuple.S, 120))
	res := h.eng.Rebalance()
	h.checkQuiescent(withFarBlock)
	return res, h
}

// TestStreamRebalanceFlipIsQuartetLocal is the acceptance check that a
// skew-drift agreement flip re-derives and migrates only the affected
// quartets' replicas rather than rebuilding the grid: the same drift is
// run with and without a 600-point far block, and because the policy's
// pair decisions depend only on the two cells of a pair, the flips and
// migrations must be identical — the far block contributes exactly zero
// migrations. Quiescent equivalence is re-checked after the flip.
func TestStreamRebalanceFlipIsQuartetLocal(t *testing.T) {
	resFar, h := runSkewDrift(t, true)
	resSolo, _ := runSkewDrift(t, false)

	if resFar.AgreementFlips == 0 {
		t.Fatalf("skew drift produced no agreement flip (rebalance result %+v)", resFar)
	}
	if resFar.Migrations == 0 {
		t.Fatalf("agreement flipped but no replicas migrated (result %+v)", resFar)
	}
	if resFar.AgreementFlips != resSolo.AgreementFlips || resFar.Migrations != resSolo.Migrations {
		t.Fatalf("far block changed rebalance work: with block flips=%d migrations=%d, without flips=%d migrations=%d — migration is not quartet-local",
			resFar.AgreementFlips, resFar.Migrations, resSolo.AgreementFlips, resSolo.Migrations)
	}
	after := h.eng.Counters()
	// Sanity-scale check for the metrics story: the drift migrated far
	// fewer replica copies than the stream holds assignments (live points
	// plus replicas), which is what a grid rebuild would re-derive.
	if volume := after.LiveR + after.LiveS + after.Replicas; resFar.Migrations >= volume {
		t.Fatalf("migrations %d not below total assignment volume %d", resFar.Migrations, volume)
	}
	t.Logf("flips=%d migrations=%d live=%d replicas=%d",
		resFar.AgreementFlips, resFar.Migrations, after.LiveR+after.LiveS, after.Replicas)
}

// TestStreamTTLExpiry drives the sliding window with a fake clock:
// expired points retract their pairs, refreshes keep a point alive past
// the original deadline, and equivalence holds after expiry.
func TestStreamTTLExpiry(t *testing.T) {
	now := time.Unix(0, 0)
	h := newHarness(t, stream.Config{
		Eps:    0.5,
		Bounds: geom.NewRect(0, 0, 10, 10),
		TTL:    10 * time.Second,
		Now:    func() time.Time { return now },
	})

	h.apply([]stream.Mutation{
		{Set: tuple.R, Tuple: tuple.Tuple{ID: 1, Pt: geom.Point{X: 5, Y: 5}}},
		{Set: tuple.S, Tuple: tuple.Tuple{ID: 2, Pt: geom.Point{X: 5.25, Y: 5}}},
	})
	if got := len(h.accumulated()); got != 1 {
		t.Fatalf("expected 1 live pair, got %d", got)
	}

	// Refresh R at t=6s; at t=12s the cutoff (2s) expires only S.
	now = now.Add(6 * time.Second)
	h.apply([]stream.Mutation{{Set: tuple.R, Tuple: tuple.Tuple{ID: 1, Pt: geom.Point{X: 5, Y: 5}}}})
	now = time.Unix(12, 0)
	h.eng.ExpireBefore(now.Add(-10 * time.Second))
	h.drain()
	c := h.eng.Counters()
	if c.LiveR != 1 || c.LiveS != 0 || c.Expired != 1 {
		t.Fatalf("after partial expiry: liveR=%d liveS=%d expired=%d", c.LiveR, c.LiveS, c.Expired)
	}
	delete(h.live[tuple.S], 2)
	h.checkQuiescent(false)
	if got := len(h.accumulated()); got != 0 {
		t.Fatalf("expected pair retracted after expiry, still have %d", got)
	}

	// The refreshed point expires off its new deadline: an Apply at
	// t=17s (cutoff 7s > refresh time 6s) reaps it as a side effect.
	now = time.Unix(17, 0)
	h.apply(nil)
	if c := h.eng.Counters(); c.LiveR != 0 || c.Expired != 2 {
		t.Fatalf("after full expiry: liveR=%d expired=%d", c.LiveR, c.Expired)
	}
}

// TestStreamSubscriptionLifecycle covers late subscription (no replay),
// blocking Next, and Close unblocking a waiting consumer.
func TestStreamSubscriptionLifecycle(t *testing.T) {
	eng, err := stream.New(stream.Config{Eps: 0.5, Bounds: geom.NewRect(0, 0, 10, 10)})
	if err != nil {
		t.Fatal(err)
	}
	eng.Upsert(tuple.R, tuple.Tuple{ID: 1, Pt: geom.Point{X: 1, Y: 1}})
	eng.Upsert(tuple.S, tuple.Tuple{ID: 2, Pt: geom.Point{X: 1.25, Y: 1}})

	// A late subscriber sees only future deltas.
	sub := eng.Subscribe()
	if _, ok := sub.TryNext(); ok {
		t.Fatal("late subscriber replayed old deltas")
	}
	eng.Delete(tuple.S, 2)
	d, ok := sub.Next()
	if !ok || d.Op != stream.Remove || d.RID != 1 || d.SID != 2 {
		t.Fatalf("expected -pair(1,2), got %+v ok=%v", d, ok)
	}

	got := make(chan bool, 1)
	go func() {
		_, ok := sub.Next()
		got <- ok
	}()
	sub.Close()
	select {
	case ok := <-got:
		if ok {
			t.Fatal("Next returned a delta after Close on empty queue")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Next")
	}
	if c := eng.Counters(); c.Subscribers != 0 {
		t.Fatalf("subscription not detached: %d subscribers", c.Subscribers)
	}
}

// TestStreamConfigValidation exercises New's input checking.
func TestStreamConfigValidation(t *testing.T) {
	good := stream.Config{Eps: 0.5, Bounds: geom.NewRect(0, 0, 1, 1)}
	if _, err := stream.New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []stream.Config{
		{Eps: 0, Bounds: good.Bounds},
		{Eps: -1, Bounds: good.Bounds},
		{Eps: 0.5},
		{Eps: 0.5, Bounds: good.Bounds, GridRes: 1.5},
		{Eps: 0.5, Bounds: good.Bounds, Policy: agreements.UniR},
	}
	for i, cfg := range bad {
		if _, err := stream.New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
