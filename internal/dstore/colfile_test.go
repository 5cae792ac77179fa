package dstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/tuple"
)

func randTuples(rng *rand.Rand, n int, withPayload bool) []tuple.Tuple {
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i] = tuple.Tuple{
			ID: int64(i + 1),
			Pt: geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
		}
		if withPayload && i%3 != 0 {
			ts[i].Payload = []byte(fmt.Sprintf("payload-%d", i))
		}
	}
	return ts
}

func TestTuplesFileRoundTrip(t *testing.T) {
	for _, withPayload := range []bool{false, true} {
		name := "plain"
		if withPayload {
			name = "payloads"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			ts := randTuples(rng, 1234, withPayload)
			path := filepath.Join(t.TempDir(), "ds.col")
			if err := WriteTuplesFile(path, ts); err != nil {
				t.Fatalf("write: %v", err)
			}
			r, err := OpenColFile(path)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer r.Close()
			if r.Count() != uint64(len(ts)) {
				t.Fatalf("count = %d, want %d", r.Count(), len(ts))
			}
			if !r.HasPayloads() {
				// Tuple files always carry payload sections so the
				// registry round-trips exactly, even when every payload
				// happens to be empty.
				t.Fatalf("HasPayloads = false on a tuples file")
			}
			got, err := r.Tuples()
			if err != nil {
				t.Fatalf("tuples: %v", err)
			}
			if len(got) != len(ts) {
				t.Fatalf("read %d tuples, want %d", len(got), len(ts))
			}
			// WriteTuplesFile must preserve insertion order exactly:
			// dataset revision equivalence (and therefore byte-identical
			// join output) depends on it.
			for i := range ts {
				if got[i].ID != ts[i].ID || got[i].Pt != ts[i].Pt || string(got[i].Payload) != string(ts[i].Payload) {
					t.Fatalf("tuple %d mismatch: got %+v want %+v", i, got[i], ts[i])
				}
			}
		})
	}
}

func TestTuplesFileEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.col")
	if err := WriteTuplesFile(path, nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	r, err := OpenColFile(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer r.Close()
	if r.Count() != 0 {
		t.Fatalf("count = %d, want 0", r.Count())
	}
	got, err := r.Tuples()
	if err != nil || len(got) != 0 {
		t.Fatalf("tuples: %d, %v", len(got), err)
	}
}

func TestColFileRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ts := randTuples(rng, 200, true)
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.col")
	if err := WriteTuplesFile(path, ts); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}

	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		// Point lanes are intentionally not checksummed (they are served
		// zero-copy from the mapping), but the directory at the tail is.
		{"flipped-directory-byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-10] ^= 0x40
			return c
		}},
		{"bad-magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] ^= 0xFF
			return c
		}},
		{"empty", func(b []byte) []byte { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, tc.name+".col")
			if err := os.WriteFile(p, tc.mut(data), 0o644); err != nil {
				t.Fatalf("write corrupt file: %v", err)
			}
			r, err := OpenColFile(p)
			if err == nil {
				// Header-level corruption may only surface on read.
				_, err = r.Tuples()
				r.Close()
			}
			if err == nil {
				t.Fatalf("corrupt file %s accepted", tc.name)
			}
		})
	}
}

// withHeaderCount returns a copy of a colfile image whose header claims
// count points, with the header checksum recomputed as anyone who writes
// the blob can do: the header CRC guards against rot, not lies.
func withHeaderCount(b []byte, count uint64) []byte {
	c := append([]byte(nil), b...)
	binary.LittleEndian.PutUint64(c[8:], count)
	binary.LittleEndian.PutUint32(c[80:], crc32.ChecksumIEEE(c[:80]))
	return c
}

// TestColFileLyingCount opens a 2-point file whose header claims 2^60
// (and 3) points. Tuples sizes its output by the header count, so a
// reader that trusts it panics on makeslice; the count must be refused
// when the file is opened, on the recovery path and the handoff path.
func TestColFileLyingCount(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "two.col")
	if err := WriteTuplesFile(path, []tuple.Tuple{{ID: 1}, {ID: 2, Pt: geom.Point{X: 1, Y: 1}}}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []uint64{1 << 60, 3, 1} {
		lying := withHeaderCount(good, count)
		if err := os.WriteFile(path, lying, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := OpenColFile(path); err == nil {
			ts, err := r.Tuples()
			r.Close()
			t.Fatalf("count %d: opened; Tuples returned %d tuples, err %v", count, len(ts), err)
		}
		if _, err := loadTuplesFile(path); err == nil {
			t.Fatalf("count %d: recovery loaded the file", count)
		}
		if _, err := DecodeTuples(lying); err == nil {
			t.Fatalf("count %d: DecodeTuples accepted the blob", count)
		}
	}
	if ts, err := DecodeTuples(good); err != nil || len(ts) != 2 {
		t.Fatalf("DecodeTuples(good) = %d tuples, %v", len(ts), err)
	}
}

// bruteForcePairs is the O(n*m) oracle, using the same squared-distance
// predicate as the sweep kernel so boundary cases agree bit-for-bit.
func bruteForcePairs(rs, ss []tuple.Tuple, eps float64) []tuple.Pair {
	var out []tuple.Pair
	for _, r := range rs {
		for _, s := range ss {
			dx := r.Pt.X - s.Pt.X
			dy := r.Pt.Y - s.Pt.Y
			if dx*dx+dy*dy <= eps*eps {
				out = append(out, tuple.Pair{RID: r.ID, SID: s.ID})
			}
		}
	}
	return out
}

func sortPairs(ps []tuple.Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].RID != ps[j].RID {
			return ps[i].RID < ps[j].RID
		}
		return ps[i].SID < ps[j].SID
	})
}

func TestJoinFilesMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rs := randTuples(rng, 600, false)
	ss := make([]tuple.Tuple, 500)
	for i := range ss {
		ss[i] = tuple.Tuple{
			ID: int64(10_000 + i),
			Pt: geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
		}
	}
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	const fileEps = 2.5
	dir := t.TempDir()
	rPath := filepath.Join(dir, "r.col")
	sPath := filepath.Join(dir, "s.col")
	if err := WritePartitioned(rPath, rs, fileEps, 0, bounds); err != nil {
		t.Fatalf("write r: %v", err)
	}
	if err := WritePartitioned(sPath, ss, fileEps, 0, bounds); err != nil {
		t.Fatalf("write s: %v", err)
	}
	rr, err := OpenColFile(rPath)
	if err != nil {
		t.Fatalf("open r: %v", err)
	}
	defer rr.Close()
	sr, err := OpenColFile(sPath)
	if err != nil {
		t.Fatalf("open s: %v", err)
	}
	defer sr.Close()
	if !rr.Partitioned() || !sr.Partitioned() {
		t.Fatalf("files not marked partitioned")
	}

	// The join must be exact both at the partitioning eps and at any
	// smaller query eps (the halo width only has to cover it).
	for _, eps := range []float64{fileEps, 1.0, 0.2} {
		var got []tuple.Pair
		n, err := JoinFiles(rr, sr, eps, func(ps []tuple.Pair) {
			got = append(got, ps...)
		})
		if err != nil {
			t.Fatalf("JoinFiles eps=%g: %v", eps, err)
		}
		want := bruteForcePairs(rs, ss, eps)
		if n != int64(len(got)) {
			t.Fatalf("eps=%g: returned count %d != emitted %d", eps, n, len(got))
		}
		sortPairs(got)
		sortPairs(want)
		if len(got) != len(want) {
			t.Fatalf("eps=%g: %d pairs, want %d", eps, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("eps=%g: pair %d = %+v, want %+v", eps, i, got[i], want[i])
			}
		}
		if len(want) == 0 {
			t.Fatalf("eps=%g: oracle found no pairs; test is vacuous", eps)
		}
	}

	// A cancelled join stops before it sweeps a cell.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bufs := colsweep.Get()
	defer colsweep.Put(bufs)
	out := bufs.Sink(false, false)
	if err := JoinFilesInto(ctx, rr, sr, fileEps, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("JoinFilesInto with a cancelled context: err %v, want context.Canceled", err)
	}
	if out.N != 0 {
		t.Fatalf("JoinFilesInto with a cancelled context swept %d pairs", out.N)
	}
}

func TestJoinFilesRejectsOversizedEps(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ts := randTuples(rng, 50, false)
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.col")
	p2 := filepath.Join(dir, "b.col")
	if err := WritePartitioned(p1, ts, 1.0, 0, bounds); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := WritePartitioned(p2, ts, 1.0, 0, bounds); err != nil {
		t.Fatalf("write: %v", err)
	}
	a, err := OpenColFile(p1)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer a.Close()
	b, err := OpenColFile(p2)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer b.Close()
	// Halos were built for eps=1.0; a wider query would miss pairs, so it
	// must be refused rather than silently wrong.
	if _, err := JoinFiles(a, b, 2.0, func([]tuple.Pair) {}); err == nil {
		t.Fatalf("JoinFiles accepted eps larger than the partitioning eps")
	}
}

// A Close that fails partway (here: its directory write) removes the
// file instead of leaving a headers-only one behind.
func TestColWriterFailedCloseRemovesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "partial.col")
	w, err := NewColWriter(path, ColOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var cols colsweep.Cols
	cols.Append(1, 2, 1)
	if err := w.AppendChunk(-1, ChunkKindNative, &cols, nil); err != nil {
		t.Fatal(err)
	}
	w.f.Close()
	if err := w.Close(); err == nil {
		t.Fatal("Close on a closed descriptor succeeded")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed Close left %s behind (stat: %v)", path, err)
	}
}
