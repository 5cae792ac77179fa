package dstore

import (
	"fmt"
	"testing"
	"time"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/tuple"
)

func pts(ids ...int64) []tuple.Tuple {
	ts := make([]tuple.Tuple, len(ids))
	for i, id := range ids {
		ts[i] = tuple.Tuple{ID: id, Pt: geom.Point{X: float64(id), Y: float64(-id)}}
	}
	return ts
}

func sameTuples(t *testing.T, got, want []tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Pt != want[i].Pt || string(got[i].Payload) != string(want[i].Payload) {
			t.Fatalf("tuple %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestMergeMutations pins the one dataset-mutation merge that the live
// registry and log recovery share.
func TestMergeMutations(t *testing.T) {
	moved := func(id int64) tuple.Tuple { return tuple.Tuple{ID: id, Pt: geom.Point{X: 100, Y: float64(id)}} }
	for _, tc := range []struct {
		name string
		ts   []tuple.Tuple
		ups  []tuple.Tuple
		dels []int64
		want []tuple.Tuple
	}{
		{"no mutation", pts(1, 2, 3), nil, nil, pts(1, 2, 3)},
		{"delete keeps survivor order", pts(4, 1, 3, 2), nil, []int64{1}, pts(4, 3, 2)},
		{"delete of an unknown id", pts(1, 2), nil, []int64{9}, pts(1, 2)},
		{"upsert of a new id appends", pts(1, 2), pts(7), nil, pts(1, 2, 7)},
		{"upsert of a known id moves it to the end", pts(1, 2, 3), []tuple.Tuple{moved(1)}, nil, append(pts(2, 3), moved(1))},
		{"delete then re-upsert of one id", pts(1, 2, 3), []tuple.Tuple{moved(2)}, []int64{2}, append(pts(1, 3), moved(2))},
		{"upserts appended in request order", pts(5), pts(9, 3, 7), []int64{5}, pts(9, 3, 7)},
		{"delete everything", pts(1, 2), nil, []int64{2, 1}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := append([]tuple.Tuple(nil), tc.ts...)
			sameTuples(t, MergeMutations(tc.ts, tc.ups, tc.dels), tc.want)
			sameTuples(t, tc.ts, before)
		})
	}
}

func TestStoreRecoverFromLogOnly(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if rec.LastSeq != 0 || len(rec.Datasets) != 0 || len(rec.Streams) != 0 {
		t.Fatalf("fresh store recovered state: %+v", rec)
	}
	if _, err := st.LogDatasetPut("roads", 1, pts(1, 2, 3)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := st.LogDatasetApply("roads", 1, pts(4), []int64{2}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if _, err := st.LogDatasetPut("pois", 2, pts(10, 11)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := st.LogDatasetDelete("pois"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	spec := StreamSpec{Name: "live", Eps: 1.5, MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	if _, err := st.LogStreamCreate(spec); err != nil {
		t.Fatalf("stream create: %v", err)
	}
	at := time.Unix(1700000000, 12345)
	muts := []StreamMutation{
		{Set: 0, Tuple: tuple.Tuple{ID: 7, Pt: geom.Point{X: 1, Y: 2}}},
		{Set: 1, Delete: true, Tuple: tuple.Tuple{ID: 9}},
	}
	if _, err := st.LogStreamBatch("live", at, muts); err != nil {
		t.Fatalf("stream batch: %v", err)
	}
	if err := st.AppendSkew("roads", "pois", 1.5, map[string]int{"hot_cells": 3}); err != nil {
		t.Fatalf("skew: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if rec2.CheckpointSeq != 0 {
		t.Fatalf("CheckpointSeq = %d, want 0 (no checkpoint written)", rec2.CheckpointSeq)
	}
	if rec2.ReplayedRecords != 7 {
		t.Fatalf("ReplayedRecords = %d, want 7", rec2.ReplayedRecords)
	}
	if len(rec2.Datasets) != 1 {
		t.Fatalf("recovered %d datasets, want 1 (pois was deleted)", len(rec2.Datasets))
	}
	ds := rec2.Datasets[0]
	if ds.Name != "roads" || ds.Rev != 1 || ds.Gen != 1 {
		t.Fatalf("dataset = %s r%d g%d, want roads r1 g1", ds.Name, ds.Rev, ds.Gen)
	}
	// put(1,2,3) + upsert(4) - delete(2), order-preserving.
	sameTuples(t, ds.Tuples, pts(1, 3, 4))
	// NextRev must clear every revision ever assigned, including the
	// deleted dataset's rev 2.
	if rec2.NextRev != 3 {
		t.Fatalf("NextRev = %d, want 3", rec2.NextRev)
	}
	if len(rec2.Streams) != 1 {
		t.Fatalf("recovered %d streams, want 1", len(rec2.Streams))
	}
	rs := rec2.Streams[0]
	if rs.Spec != spec || rs.Snapshot != nil || len(rs.Tail) != 1 {
		t.Fatalf("recovered stream = %+v", rs)
	}
	tb := rs.Tail[0]
	if !tb.AppliedAt.Equal(at) || len(tb.Muts) != 2 {
		t.Fatalf("tail batch = %+v", tb)
	}
	if tb.Muts[0].Set != 0 || tb.Muts[0].Delete || tb.Muts[0].Tuple.ID != 7 ||
		tb.Muts[0].Tuple.Pt != muts[0].Tuple.Pt ||
		!tb.Muts[1].Delete || tb.Muts[1].Tuple.ID != 9 {
		t.Fatalf("tail mutations = %+v", tb.Muts)
	}
	if len(rec2.Skew) != 1 || rec2.Skew[0].R != "roads" || rec2.Skew[0].S != "pois" {
		t.Fatalf("skew history = %+v", rec2.Skew)
	}
}

func TestStoreCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := st.LogDatasetPut("roads", 1, pts(1, 2)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := st.LogDatasetApply("roads", 1, pts(3), nil); err != nil {
		t.Fatalf("apply: %v", err)
	}
	spec := StreamSpec{Name: "live", Eps: 1, MaxX: 10, MaxY: 10}
	if _, err := st.LogStreamCreate(spec); err != nil {
		t.Fatalf("stream create: %v", err)
	}
	batchSeq, err := st.LogStreamBatch("live", time.Unix(1, 0), []StreamMutation{{Set: 0, Tuple: tuple.Tuple{ID: 1}}})
	if err != nil {
		t.Fatalf("stream batch: %v", err)
	}

	// Checkpoint covering everything so far: the stream blob is opaque to
	// the store, any bytes do.
	blob := []byte("engine-snapshot")
	ckSeq, err := st.WriteCheckpoint(CheckpointState{
		NextRev:     2,
		RegistrySeq: st.log.LastSeq(),
		StreamsSeq:  st.log.LastSeq(),
		Datasets:    []DatasetCheckpoint{{Name: "roads", Rev: 1, Gen: 1, Tuples: pts(1, 2, 3)}},
		Streams:     []StreamCheckpoint{{Spec: spec, CoveredSeq: batchSeq, Blob: blob}},
	})
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if ckSeq != st.log.LastSeq() {
		t.Fatalf("checkpoint seq %d, want %d", ckSeq, st.log.LastSeq())
	}

	// Two records after the checkpoint: only these replay on reopen.
	if _, err := st.LogDatasetApply("roads", 2, pts(4), nil); err != nil {
		t.Fatalf("apply: %v", err)
	}
	tailAt := time.Unix(2, 0)
	if _, err := st.LogStreamBatch("live", tailAt, []StreamMutation{{Set: 1, Tuple: tuple.Tuple{ID: 2}}}); err != nil {
		t.Fatalf("stream batch: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if rec.CheckpointSeq != ckSeq {
		t.Fatalf("CheckpointSeq = %d, want %d", rec.CheckpointSeq, ckSeq)
	}
	if rec.ReplayedRecords != 2 {
		t.Fatalf("ReplayedRecords = %d, want 2 (bounded by the checkpoint)", rec.ReplayedRecords)
	}
	if rec.NextRev != 2 {
		t.Fatalf("NextRev = %d, want 2", rec.NextRev)
	}
	if len(rec.Datasets) != 1 {
		t.Fatalf("recovered %d datasets", len(rec.Datasets))
	}
	ds := rec.Datasets[0]
	if ds.Rev != 1 || ds.Gen != 2 {
		t.Fatalf("dataset r%d g%d, want r1 g2 (checkpoint gen 1 + tail apply)", ds.Rev, ds.Gen)
	}
	sameTuples(t, ds.Tuples, pts(1, 2, 3, 4))
	if len(rec.Streams) != 1 {
		t.Fatalf("recovered %d streams", len(rec.Streams))
	}
	rs := rec.Streams[0]
	if string(rs.Snapshot) != string(blob) {
		t.Fatalf("snapshot = %q, want %q", rs.Snapshot, blob)
	}
	if len(rs.Tail) != 1 || !rs.Tail[0].AppliedAt.Equal(tailAt) {
		t.Fatalf("tail = %+v, want only the post-checkpoint batch", rs.Tail)
	}

	// A second checkpoint that covers the whole log makes the next open
	// replay nothing at all.
	if _, err := st2.WriteCheckpoint(CheckpointState{
		NextRev:     2,
		RegistrySeq: st2.log.LastSeq(),
		StreamsSeq:  st2.log.LastSeq(),
		Datasets:    []DatasetCheckpoint{{Name: "roads", Rev: 1, Gen: 2, Tuples: pts(1, 2, 3, 4)}},
		Streams:     []StreamCheckpoint{{Spec: spec, CoveredSeq: st2.log.LastSeq(), Blob: blob}},
	}); err != nil {
		t.Fatalf("second checkpoint: %v", err)
	}
	st2.Close()

	st3, rec3, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer st3.Close()
	if rec3.ReplayedRecords != 0 {
		t.Fatalf("ReplayedRecords = %d after full checkpoint, want 0", rec3.ReplayedRecords)
	}
	sameTuples(t, rec3.Datasets[0].Tuples, pts(1, 2, 3, 4))
}

func TestStoreStreamDeleteDropsTail(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	spec := StreamSpec{Name: "ephemeral", Eps: 1, MaxX: 1, MaxY: 1}
	if _, err := st.LogStreamCreate(spec); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := st.LogStreamBatch("ephemeral", time.Unix(1, 0), []StreamMutation{{Tuple: tuple.Tuple{ID: 1}}}); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if _, err := st.LogStreamDelete("ephemeral"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	st.Close()

	st2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if len(rec.Streams) != 0 {
		t.Fatalf("deleted stream recovered: %+v", rec.Streams)
	}
}

func TestStoreSkewHistoryBounded(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	const rounds = maxSkewSamples + 8
	for i := 0; i < rounds; i++ {
		if err := st.AppendSkew("r", "s", 1.0, map[string]int{"round": i}); err != nil {
			t.Fatalf("skew %d: %v", i, err)
		}
	}
	hist := st.SkewHistory()
	if len(hist) != maxSkewSamples {
		t.Fatalf("history holds %d samples, want %d (bounded)", len(hist), maxSkewSamples)
	}
	if want := fmt.Sprintf(`{"round":%d}`, rounds-1); string(hist[len(hist)-1].Report) != want {
		t.Fatalf("latest sample = %s, want %s", hist[len(hist)-1].Report, want)
	}
}
