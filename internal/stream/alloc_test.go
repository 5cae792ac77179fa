package stream

import (
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/tuple"
)

// TestStreamIngestAllocs: in steady state a subscription's push/drain
// cycle reuses its queue, and a point that moves within its cell
// reuses its entry, so neither allocates.
func TestStreamIngestAllocs(t *testing.T) {
	t.Run("push and drain", func(t *testing.T) {
		sub := newSubscription()
		batch := make([]Delta, 64)
		for i := range batch {
			batch[i] = Delta{Op: Add, RID: int64(i), SID: int64(i)}
		}
		if n := testing.AllocsPerRun(100, func() {
			sub.push(batch)
			for {
				if _, ok := sub.TryNext(); !ok {
					break
				}
			}
		}); n != 0 {
			t.Errorf("push/drain of %d deltas: %v allocs, want 0", len(batch), n)
		}
		// A consumer that lags keeps the emission order while push
		// slides its backlog to the front of the reused array.
		want := int64(0)
		for round := 0; round < 8; round++ {
			sub.push(batch)
			for k := 0; k < 40; k++ {
				d, ok := sub.TryNext()
				if !ok || d.RID != want%64 {
					t.Fatalf("round %d: got %+v ok=%v, want RID %d", round, d, ok, want%64)
				}
				want++
			}
		}
		if cap(sub.queue) > 4*len(batch) {
			t.Errorf("lagging queue grew to cap %d for a %d-delta backlog", cap(sub.queue), len(sub.queue)-sub.head)
		}
	})
	t.Run("same-cell move", func(t *testing.T) {
		eng, err := New(Config{Eps: 0.1, GridRes: 4, Bounds: geom.NewRect(0, 0, 4, 4), RebalanceEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		eng.Upsert(tuple.S, tuple.Tuple{ID: 1, Pt: geom.Point{X: 0.6, Y: 0.6}})
		a := []Mutation{{Set: tuple.R, Tuple: tuple.Tuple{ID: 2, Pt: geom.Point{X: 0.55, Y: 0.55}}}}
		b := []Mutation{{Set: tuple.R, Tuple: tuple.Tuple{ID: 2, Pt: geom.Point{X: 0.65, Y: 0.62}}}}
		eng.Apply(a)
		if n := testing.AllocsPerRun(100, func() {
			eng.Apply(b)
			eng.Apply(a)
		}); n != 0 {
			t.Errorf("same-cell move: %v allocs, want 0", n)
		}
		if c := eng.Counters(); c.DeltasAdded != 203 || c.DeltasRemoved != 202 {
			t.Errorf("moves emitted +%d/-%d deltas, want +203/-202", c.DeltasAdded, c.DeltasRemoved)
		}
	})
}
