package dstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/stream"
	"spatialjoin/internal/tuple"
)

// The fixtures under testdata were written by an earlier build from the
// literal values below. Every format carries a version number, so any
// change to these bytes must bump it.
const (
	fixtureWAL         = "testdata/wal-0000000000000001.log"
	fixtureCkpt        = "testdata/ckpt-0000000000000008.ck"
	fixtureTuplesCol   = "testdata/tuples.col"
	fixturePartitioned = "testdata/partitioned.col"
)

var (
	fixtureSpec = StreamSpec{
		Name: "live", Eps: 0.5, MaxX: 8, MaxY: 8, GridRes: 2,
		Policy: "lpib", RebalanceEvery: 8, RDataset: "pts",
	}
	fixtureSkew = SkewSample{
		R: "pts", S: "other", Eps: 0.25, UnixMS: 1_700_000_000_000,
		Report: json.RawMessage(`{"skew":1.5}`),
	}
	fixtureTelem = []byte(`{"counters":{"x":1}}`)

	// fixtureRecords holds one record of every log record type, in the
	// order the WAL fixture carries them (seq 1..8).
	fixtureRecords = []struct {
		typ byte
		rec any
	}{
		{recDatasetPut, datasetPutRec{Name: "pts", Rev: 3, File: "datasets/pts-r3-g0.col", Points: 5}},
		{recDatasetApply, datasetApplyRec{
			Name: "pts", Gen: 4,
			Upserts: []tuple.Tuple{
				{ID: 7, Pt: geom.Point{X: 1.5, Y: -2.25}, Payload: []byte("hi")},
				{ID: -9, Pt: geom.Point{X: 0, Y: 1e-300}},
			},
			Deletes: []int64{3, 11},
		}},
		{recDatasetDelete, "old"},
		{recStreamCreate, fixtureSpec},
		{recStreamDelete, "gone"},
		{recStreamBatch, streamBatchRec{
			Name: "live", AppliedAt: 1_000_000_000_123,
			Muts: []StreamMutation{
				{Set: 0, Tuple: tuple.Tuple{ID: 1, Pt: geom.Point{X: 1, Y: 1}}},
				{Set: 1, Delete: true, Tuple: tuple.Tuple{ID: 2}},
				{Set: 1, Tuple: tuple.Tuple{ID: 3, Pt: geom.Point{X: 2.5, Y: 3.5}, Payload: []byte("p")}},
			},
		}},
		{recSkew, fixtureSkew},
		{recTelem, fixtureTelem},
	}

	fixtureManifest = ckptManifest{
		NextRev: 5, RegistrySeq: 3, StreamsSeq: 6, SkewSeq: 7, TelemSeq: 8, LastSeq: 8,
		Datasets: []ckptDataset{{Name: "pts", Rev: 3, Gen: 4, File: "datasets/pts-r3-g4.col", Points: 5}},
		Streams:  []ckptStream{{Spec: fixtureSpec, CoveredSeq: 6}},
		Skew:     []SkewSample{fixtureSkew},
		Telem:    fixtureTelem,
	}

	fixtureTuples = []tuple.Tuple{
		{ID: 10, Pt: geom.Point{X: 0.5, Y: 0.5}, Payload: []byte("a")},
		{ID: 11, Pt: geom.Point{X: 1.5, Y: 2.5}},
		{ID: 12, Pt: geom.Point{X: 3.25, Y: 1.75}, Payload: []byte("bcd")},
		{ID: -4, Pt: geom.Point{X: 7.5, Y: 7.5}},
	}

	// fixturePartPoints have distinct x so every chunk's x order is total.
	fixturePartPoints = []tuple.Tuple{
		{ID: 1, Pt: geom.Point{X: 0.1, Y: 0.2}},
		{ID: 2, Pt: geom.Point{X: 0.95, Y: 0.3}},
		{ID: 3, Pt: geom.Point{X: 1.05, Y: 1.1}},
		{ID: 4, Pt: geom.Point{X: 1.9, Y: 3.9}},
		{ID: 5, Pt: geom.Point{X: 2.2, Y: 2.05}},
		{ID: 6, Pt: geom.Point{X: 3.3, Y: 0.9}},
		{ID: 7, Pt: geom.Point{X: 3.95, Y: 3.95}},
	}
	fixturePartBounds = geom.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}
)

// encodeFixtureRecord encodes one fixtureRecords entry as a log payload.
func encodeFixtureRecord(t *testing.T, typ byte, rec any) []byte {
	t.Helper()
	switch typ {
	case recDatasetPut:
		return rec.(datasetPutRec).encode(nil)
	case recDatasetApply:
		return rec.(datasetApplyRec).encode(nil)
	case recStreamBatch:
		return rec.(streamBatchRec).encode(nil)
	case recDatasetDelete, recStreamDelete:
		return encodeName(nil, rec.(string))
	case recStreamCreate:
		b, err := encodeStreamCreate(nil, rec.(StreamSpec))
		if err != nil {
			t.Fatal(err)
		}
		return b
	case recSkew:
		b, err := encodeSkew(nil, rec.(SkewSample))
		if err != nil {
			t.Fatal(err)
		}
		return b
	case recTelem:
		return encodeTelem(nil, rec.([]byte))
	}
	t.Fatalf("record type %d has no fixture encoder", typ)
	return nil
}

// decodeFixtureRecord decodes a log payload of type typ.
func decodeFixtureRecord(typ byte, p []byte) (any, error) {
	switch typ {
	case recDatasetPut:
		return decodeDatasetPut(p)
	case recDatasetApply:
		return decodeDatasetApply(p)
	case recStreamBatch:
		return decodeStreamBatch(p)
	case recDatasetDelete, recStreamDelete:
		return decodeName(p)
	case recStreamCreate:
		return decodeStreamCreate(p)
	case recSkew:
		return decodeSkew(p)
	case recTelem:
		return decodeTelem(p)
	}
	return nil, nil
}

// writeFixtureWAL appends every fixture record to a fresh log under dir
// and returns the bytes of its one segment.
func writeFixtureWAL(t *testing.T, dir string) []byte {
	t.Helper()
	l, err := openLog(dir, logOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fixtureRecords {
		if _, err := l.Append(r.typ, encodeFixtureRecord(t, r.typ, r.rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fixtureStreamConfig is the engine configuration fixtureSpec describes.
func fixtureStreamConfig() stream.Config {
	return stream.Config{
		Eps:            fixtureSpec.Eps,
		Bounds:         geom.Rect{MinX: fixtureSpec.MinX, MinY: fixtureSpec.MinY, MaxX: fixtureSpec.MaxX, MaxY: fixtureSpec.MaxY},
		GridRes:        fixtureSpec.GridRes,
		Policy:         agreements.LPiB,
		RebalanceEvery: fixtureSpec.RebalanceEvery,
	}
}

func readFixture(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFormatFixtures pins the on-disk formats: the WAL segment (SJWL),
// the checkpoint file (SJK1) with its embedded engine snapshot (SJSE),
// and the tuple and partitioned colfiles (SJC1). Each fixture decodes
// to the literal values it was written from and re-encodes to exactly
// its bytes.
func TestFormatFixtures(t *testing.T) {
	t.Run("wal", func(t *testing.T) {
		want := readFixture(t, fixtureWAL)
		var n int
		_, last, err := scanSegment(fixtureWAL, 1, 0, func(seq uint64, typ byte, p []byte) error {
			r := fixtureRecords[n]
			if seq != uint64(n+1) || typ != r.typ {
				t.Fatalf("record %d is seq %d type %d, want seq %d type %d", n, seq, typ, n+1, r.typ)
			}
			got, err := decodeFixtureRecord(typ, p)
			if err != nil {
				t.Fatalf("record type %d: %v", typ, err)
			}
			if !reflect.DeepEqual(got, r.rec) {
				t.Fatalf("record type %d decodes to %+v, want %+v", typ, got, r.rec)
			}
			if enc := encodeFixtureRecord(t, typ, got); !bytes.Equal(enc, p) {
				t.Fatalf("record type %d does not re-encode to its payload", typ)
			}
			n++
			return nil
		})
		if err != nil || last != uint64(len(fixtureRecords)) || n != len(fixtureRecords) {
			t.Fatalf("scan: err %v, last seq %d, %d records; want %d", err, last, n, len(fixtureRecords))
		}
		if got := writeFixtureWAL(t, t.TempDir()); !bytes.Equal(got, want) {
			t.Fatal("re-encoded WAL segment differs from the fixture")
		}
	})

	t.Run("checkpoint", func(t *testing.T) {
		want := readFixture(t, fixtureCkpt)
		m, blobs, err := readCheckpointFile(fixtureCkpt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, fixtureManifest) {
			t.Fatalf("manifest %+v, want %+v", m, fixtureManifest)
		}
		if len(blobs) != 1 {
			t.Fatalf("%d stream blobs, want 1", len(blobs))
		}
		eng, err := stream.Restore(fixtureStreamConfig(), blobs[0])
		if err != nil {
			t.Fatalf("embedded SJSE: %v", err)
		}
		defer eng.Close()
		if c := eng.Counters(); c.Upserts != 13 || c.LiveR != 5 || c.LiveS != 6 || len(eng.CurrentPairs()) != 6 {
			t.Fatalf("embedded engine counters %+v, %d pairs", c, len(eng.CurrentPairs()))
		}
		var snap bytes.Buffer
		if err := eng.WriteCheckpoint(&snap); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		path, err := writeCheckpointFile(dir, m, [][]byte{snap.Bytes()})
		if err != nil {
			t.Fatal(err)
		}
		if got := readFixture(t, path); !bytes.Equal(got, want) {
			t.Fatal("re-encoded checkpoint differs from the fixture")
		}
	})

	t.Run("tuples colfile", func(t *testing.T) {
		want := readFixture(t, fixtureTuplesCol)
		r, err := newColReader(want)
		if err != nil {
			t.Fatal(err)
		}
		if r.Partitioned() || !r.HasPayloads() || r.Count() != uint64(len(fixtureTuples)) {
			t.Fatalf("header: partitioned %v, payloads %v, count %d", r.Partitioned(), r.HasPayloads(), r.Count())
		}
		got, err := r.Tuples()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fixtureTuples) {
			t.Fatalf("tuples %+v, want %+v", got, fixtureTuples)
		}
		path := filepath.Join(t.TempDir(), "t.col")
		if err := WriteTuplesFile(path, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readFixture(t, path), want) {
			t.Fatal("re-encoded tuple colfile differs from the fixture")
		}
	})

	t.Run("partitioned colfile", func(t *testing.T) {
		want := readFixture(t, fixturePartitioned)
		r, err := newColReader(want)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Partitioned() || r.HasPayloads() || r.Eps() != 0.5 || r.Res() != 2 || r.Bounds() != fixturePartBounds {
			t.Fatalf("header: partitioned %v, payloads %v, eps %v, res %v, bounds %+v",
				r.Partitioned(), r.HasPayloads(), r.Eps(), r.Res(), r.Bounds())
		}
		halos := 0
		for i := 0; i < r.NumChunks(); i++ {
			if r.Info(i).Kind == ChunkKindHalo {
				halos++
			}
		}
		if halos == 0 {
			t.Fatal("partitioned fixture has no halo chunk")
		}
		got, err := r.Tuples()
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
		if !reflect.DeepEqual(got, fixturePartPoints) {
			t.Fatalf("native points %+v, want %+v", got, fixturePartPoints)
		}
		path := filepath.Join(t.TempDir(), "p.col")
		if err := WritePartitioned(path, got, r.Eps(), r.Res(), r.Bounds()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readFixture(t, path), want) {
			t.Fatal("re-encoded partitioned colfile differs from the fixture")
		}
	})
}
