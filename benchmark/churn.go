package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/stream"
	"spatialjoin/internal/tuple"
)

// churnBatch is the number of mutations one Apply carries.
const churnBatch = 64

// liveSet mirrors one input of the stream engine on the benchmark's
// side, so mutations can pick live ids and the final check can rebuild
// the join from scratch.
type liveSet struct {
	ts     []tuple.Tuple
	at     map[int64]int // id → index in ts
	spare  []tuple.Tuple // pool points not live now, the source of inserts
	nextID int64
}

func newLiveSet(ts, spare []tuple.Tuple, idBase int64) *liveSet {
	l := &liveSet{ts: ts, at: make(map[int64]int, len(ts)), spare: spare, nextID: idBase + int64(len(ts))}
	for i, t := range ts {
		l.at[t.ID] = i
	}
	return l
}

// churnBench preloads a stream.Engine and then has one writer apply
// batches of moves, inserts and deletes, each time waiting until the
// one subscriber has received every delta the batch produced.
type churnBench struct {
	cfg config
	n   int
	eps float64

	rng  *rand.Rand
	live [2]*liveSet
	eng  *stream.Engine
	sub  *stream.Subscription

	recv    atomic.Int64  // deltas the subscriber has drained
	target  atomic.Int64  // deltas emitted up to the batch being waited for
	caught  chan struct{} // subscriber → writer: recv reached target
	drained sync.WaitGroup
	pairs   int64 // size of the result set, maintained from the deltas
}

func (b *churnBench) setup() error {
	b.rng = rand.New(rand.NewSource(b.cfg.seed))
	r, spareR := pointSet(kindTiger, b.n, b.rng, 0)
	s, spareS := pointSet(kindGauss, b.n, b.rng, 2_000_000_000)
	b.live = [2]*liveSet{newLiveSet(r, spareR, 0), newLiveSet(s, spareS, 2_000_000_000)}
	eng, err := stream.New(stream.Config{Eps: b.eps, Bounds: datagen.World(), Policy: agreements.LPiB})
	if err != nil {
		return err
	}
	b.eng = eng
	// Preload both inputs interleaved, as a feed that had been running.
	batch := make([]stream.Mutation, 0, 4096)
	for i := 0; i < b.n; i++ {
		batch = append(batch, stream.Mutation{Set: tuple.R, Tuple: r[i]}, stream.Mutation{Set: tuple.S, Tuple: s[i]})
		if len(batch) == cap(batch) || i == b.n-1 {
			eng.Apply(batch)
			batch = batch[:0]
		}
	}
	c := eng.Counters()
	b.pairs = c.DeltasAdded - c.DeltasRemoved

	b.sub = eng.Subscribe()
	b.recv.Store(0)
	b.target.Store(0)
	b.caught = make(chan struct{}, 1)
	b.drained.Add(1)
	go func() {
		defer b.drained.Done()
		for {
			if _, ok := b.sub.Next(); !ok {
				return
			}
			if b.recv.Add(1) == b.target.Load() {
				select {
				case b.caught <- struct{}{}:
				default:
				}
			}
		}
	}()
	for i := 0; i < 2; i++ { // warm-up
		b.applyBatch()
	}
	return nil
}

func (b *churnBench) teardown() {
	if b.eng != nil {
		b.eng.Close()
		b.drained.Wait()
		b.eng = nil
	}
}

// The final check needs the live sets as they are after the window, so
// the reference join is computed there and not here.
func (b *churnBench) oracle() error { return nil }

// nextBatch draws 64 mutations: 70 % moves of a live point by a jitter
// of about ε/2, 15 % inserts from the spare pool, 15 % deletes.
func (b *churnBench) nextBatch() []stream.Mutation {
	batch := make([]stream.Mutation, 0, churnBatch)
	for len(batch) < churnBatch {
		set := tuple.Set(b.rng.Intn(2))
		l := b.live[set]
		switch u := b.rng.Intn(100); {
		case u < 70:
			i := b.rng.Intn(len(l.ts))
			l.ts[i].Pt.X += b.rng.NormFloat64() * b.eps / 2
			l.ts[i].Pt.Y += b.rng.NormFloat64() * b.eps / 2
			batch = append(batch, stream.Mutation{Set: set, Tuple: l.ts[i]})
		case u < 85:
			t := l.spare[len(l.spare)-1]
			l.spare = l.spare[:len(l.spare)-1]
			t.ID = l.nextID
			l.nextID++
			l.at[t.ID] = len(l.ts)
			l.ts = append(l.ts, t)
			batch = append(batch, stream.Mutation{Set: set, Tuple: t})
		default:
			i := b.rng.Intn(len(l.ts))
			gone, last := l.ts[i], l.ts[len(l.ts)-1]
			l.ts[i] = last
			l.at[last.ID] = i
			l.ts = l.ts[:len(l.ts)-1]
			delete(l.at, gone.ID)
			l.spare = append(l.spare, gone) // may come back under a new id
			batch = append(batch, stream.Mutation{Set: set, Delete: true, Tuple: tuple.Tuple{ID: gone.ID}})
		}
	}
	return batch
}

// applyBatch applies one batch and waits for its last delta to reach
// the subscriber. It returns the Apply time, the time to the last delta
// and what the engine reported.
func (b *churnBench) applyBatch() (apply, delta time.Duration, res stream.BatchResult) {
	batch := b.nextBatch()
	t0 := time.Now()
	res = b.eng.Apply(batch)
	apply = time.Since(t0)
	b.pairs += res.DeltasAdded - res.DeltasRemoved
	want := b.target.Add(res.DeltasAdded + res.DeltasRemoved)
	for b.recv.Load() < want {
		<-b.caught
	}
	return apply, time.Since(t0), res
}

func (b *churnBench) window(d time.Duration) (*tally, error) {
	t := newTally()
	before := b.eng.Counters()
	zero := 0
	start := time.Now()
	for time.Since(start) < d {
		apply, delta, res := b.applyBatch()
		t.ops++
		t.observe("apply", apply)
		if res.DeltasAdded+res.DeltasRemoved == 0 {
			zero++
			continue
		}
		t.observe("op", delta)
	}
	t.elapsed = time.Since(start)
	after := b.eng.Counters()

	// End-of-window check: the engine's quiescent result set, and the
	// set size the deltas add up to, against a from-scratch join of the
	// live points.
	t.attempted = t.ops + 1
	want := oracleJoin(b.live[0].ts, b.live[1].ts, b.eps)
	if b.cfg.corrupt {
		want.n++
	}
	var got answer
	for _, p := range b.eng.CurrentPairs() {
		got.add(p.RID, p.SID)
	}
	if got != want || b.pairs != want.n || after.LiveR != int64(len(b.live[0].ts)) || after.LiveS != int64(len(b.live[1].ts)) {
		t.failed++
	}

	muts := float64(t.ops * churnBatch)
	t.vals["stream.apply_ms_per_batch"] = median(t.lat["apply"])
	t.vals["stream.mutations_per_s"] = muts / t.elapsed.Seconds()
	t.vals["stream.deltas_per_mutation"] = float64(after.DeltasAdded+after.DeltasRemoved-before.DeltasAdded-before.DeltasRemoved) / muts
	t.vals["stream.zero_delta_batches"] = float64(zero)
	t.vals["stream.slab_rebuilds"] = float64(after.SlabRebuilds - before.SlabRebuilds)
	t.vals["stream.rebalance_runs"] = float64(after.RebalanceRuns - before.RebalanceRuns)
	t.vals["stream.agreement_flips"] = float64(after.AgreementFlips - before.AgreementFlips)
	t.vals["stream.migrations"] = float64(after.Migrations - before.Migrations)
	t.vals["stream.replicas"] = float64(after.Replicas)
	return t, nil
}

// layers times the two engine calls the window never makes on its own:
// an explicit drift scan and a full snapshot of the result set.
func (b *churnBench) layers(lp *layerPass) error {
	var errs []error
	lp.reps(func() {
		b.applyBatch() // dirty some cells so the scan has work
		lp.timed("stream.rebalance", func() { b.eng.Rebalance() })
		lp.timed("stream.snapshot", func() {
			if n := int64(len(b.eng.CurrentPairs())); n != b.pairs {
				errs = append(errs, fmt.Errorf("snapshot holds %d pairs, the deltas add up to %d", n, b.pairs))
			}
		})
	})
	return errors.Join(errs...)
}
