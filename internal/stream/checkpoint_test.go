package stream_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/codec"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/stream"
	"spatialjoin/internal/tuple"
)

func ckptConfig(now func() time.Time) stream.Config {
	return stream.Config{
		Eps:            0.5,
		Bounds:         geom.Rect{MinX: 0, MinY: 0, MaxX: 8, MaxY: 8},
		GridRes:        2,
		Policy:         agreements.LPiB,
		RebalanceEvery: 8,
		Now:            now,
	}
}

func randomBatch(rng *rand.Rand, n int) []stream.Mutation {
	batch := make([]stream.Mutation, 0, n)
	for i := 0; i < n; i++ {
		m := stream.Mutation{
			Set: tuple.Set(rng.Intn(2)),
			Tuple: tuple.Tuple{
				ID: int64(rng.Intn(200)),
				Pt: geom.Point{X: float64(rng.Intn(129)) / 16, Y: float64(rng.Intn(129)) / 16},
			},
		}
		if rng.Intn(5) == 0 {
			m.Delete = true
		}
		batch = append(batch, m)
	}
	return batch
}

// TestStreamCheckpointRoundTrip drives an engine, snapshots it, restores
// the snapshot into a fresh engine, and then feeds both the original and
// the restored engine the same further batches: result sets and counters
// must stay identical throughout — a restored engine is observationally
// equivalent to one that never stopped. Every batch ends with a drift
// scan (16 mutations, RebalanceEvery 8), so the snapshot is taken at a
// scan boundary and the two engines flip the same pairs afterwards.
func TestStreamCheckpointRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { checkpointRoundTrip(t, seed) })
	}
}

func checkpointRoundTrip(t *testing.T, seed int64) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	orig, err := stream.New(ckptConfig(now))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer orig.Close()

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 30; i++ {
		clock = clock.Add(time.Second)
		orig.Apply(randomBatch(rng, 16))
	}

	var blob bytes.Buffer
	if err := orig.WriteCheckpoint(&blob); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	restored, err := stream.Restore(ckptConfig(now), blob.Bytes())
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer restored.Close()

	// CurrentPairs compacts every slab of both engines, so from here on
	// both start from the same compacted slabs and even the structural
	// counters (slab rebuilds, migrations) must match.
	for i := -1; i < 20; i++ {
		if i >= 0 {
			clock = clock.Add(time.Second)
			batch := randomBatch(rng, 16)
			if ob, rb := orig.Apply(batch), restored.Apply(batch); ob != rb {
				t.Fatalf("batch %d diverged: orig %+v restored %+v", i, ob, rb)
			}
		}
		if d := diffPairs(restored.CurrentPairs(), orig.CurrentPairs()); d != "" {
			t.Fatalf("after batch %d: restored pairs differ: %s", i, d)
		}
		if oc, rc := orig.Counters(), restored.Counters(); oc != rc {
			t.Fatalf("after batch %d: restored counters %+v, want %+v", i, rc, oc)
		}
	}
}

// TestStreamCheckpointRejects covers the refusal paths: corrupt blobs and
// config drift must fail loudly instead of restoring a wrong engine.
func TestStreamCheckpointRejects(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	eng, err := stream.New(ckptConfig(now))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer eng.Close()
	eng.Apply([]stream.Mutation{
		{Set: tuple.R, Tuple: tuple.Tuple{ID: 1, Pt: geom.Point{X: 1, Y: 1}}},
		{Set: tuple.S, Tuple: tuple.Tuple{ID: 2, Pt: geom.Point{X: 1.25, Y: 1}}},
	})
	var blob bytes.Buffer
	if err := eng.WriteCheckpoint(&blob); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	good := blob.Bytes()

	if _, err := stream.Restore(ckptConfig(now), nil); err == nil {
		t.Fatal("Restore accepted an empty blob")
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x01
	if _, err := stream.Restore(ckptConfig(now), flipped); err == nil {
		t.Fatal("Restore accepted a corrupt blob")
	}
	truncated := good[:len(good)-5]
	if _, err := stream.Restore(ckptConfig(now), truncated); err == nil {
		t.Fatal("Restore accepted a truncated blob")
	}
	// Blobs the writer cannot produce are refused even behind a valid
	// checksum: a non-zero header pad byte, and an S type in the slot of
	// cell 0's north-west pair, which lies outside the grid (slots start
	// after the 80-byte header, ten counters and the slot count).
	for name, off := range map[string]int{"pad": 6, "off-grid slot": 80 + 80 + 4 + 3} {
		forged := slices.Clone(good[:len(good)-4])
		forged[off] = 1
		if _, err := stream.Restore(ckptConfig(now), codec.Seal(forged)); err == nil {
			t.Fatalf("Restore accepted a resealed blob with a forged %s byte", name)
		}
	}
	drifted := ckptConfig(now)
	drifted.Eps = 0.75
	if _, err := stream.Restore(drifted, good); err == nil {
		t.Fatal("Restore accepted a snapshot taken under a different eps")
	}
}
