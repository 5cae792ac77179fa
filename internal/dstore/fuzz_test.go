package dstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"spatialjoin/internal/geom"
)

// buildSegment assembles a segment image: header with firstSeq, then one
// frame per (seq, typ, payload) triple. Used for seed corpus entries.
func buildSegment(firstSeq uint64, recs ...struct {
	seq     uint64
	typ     byte
	payload []byte
}) []byte {
	var b bytes.Buffer
	var hdr [segHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], segMagic)
	binary.LittleEndian.PutUint16(hdr[4:], segVersion)
	binary.LittleEndian.PutUint64(hdr[8:], firstSeq)
	b.Write(hdr[:])
	for _, r := range recs {
		frame := make([]byte, frameHeadLen+len(r.payload))
		binary.LittleEndian.PutUint32(frame[0:], uint32(len(r.payload)))
		binary.LittleEndian.PutUint64(frame[8:], r.seq)
		frame[16] = r.typ
		copy(frame[frameHeadLen:], r.payload)
		binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[8:]))
		b.Write(frame)
	}
	return b.Bytes()
}

type rec = struct {
	seq     uint64
	typ     byte
	payload []byte
}

// FuzzLogRecord feeds arbitrary bytes to the segment scanner as the
// contents of the first log segment. Whatever the bytes are, opening
// must not panic, replay must stop at the last valid record (yielding a
// contiguous prefix 1..k), and the reopened log must accept appends that
// then replay back intact.
func FuzzLogRecord(f *testing.F) {
	valid := buildSegment(1,
		rec{1, recDatasetPut, []byte("alpha")},
		rec{2, recStreamBatch, []byte("beta")},
	)
	f.Add(valid)
	// Torn tail: half of the second record's frame is missing.
	f.Add(valid[:len(valid)-6])
	// Corrupt CRC on the first record.
	crcFlip := append([]byte(nil), valid...)
	crcFlip[segHeaderLen+4] ^= 0xFF
	f.Add(crcFlip)
	// Wrong segment version.
	badVer := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(badVer[4:], segVersion+1)
	f.Add(badVer)
	// Duplicate sequence number: second record repeats seq 1.
	f.Add(buildSegment(1, rec{1, 1, []byte("a")}, rec{1, 2, []byte("b")}))
	// Sequence gap.
	f.Add(buildSegment(1, rec{1, 1, []byte("a")}, rec{3, 2, []byte("c")}))
	// Oversized declared payload length.
	huge := buildSegment(1, rec{1, 1, []byte("a")})
	binary.LittleEndian.PutUint32(huge[segHeaderLen:], maxRecordLen+1)
	f.Add(huge)
	// Header only, empty file, and garbage.
	f.Add(buildSegment(1))
	f.Add([]byte{})
	f.Add([]byte("not a log segment at all, just some text padding..."))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatalf("write seed segment: %v", err)
		}
		l, err := openLog(dir, logOptions{})
		if err != nil {
			// I/O-level failure only; corruption is never an error.
			t.Skipf("openLog: %v", err)
		}
		defer l.Close()

		var seqs []uint64
		if err := l.Replay(0, func(seq uint64, typ byte, payload []byte) error {
			seqs = append(seqs, seq)
			return nil
		}); err != nil {
			t.Fatalf("replay of recovered log failed: %v", err)
		}
		for i, s := range seqs {
			if s != uint64(i+1) {
				t.Fatalf("replay yielded seq %d at position %d; valid prefix must be contiguous from 1", s, i)
			}
		}
		if got := l.LastSeq(); got != uint64(len(seqs)) {
			t.Fatalf("LastSeq = %d but replay saw %d records", got, len(seqs))
		}

		// The recovered log must be fully writable again.
		next, err := l.Append(recSkew, []byte("post-recovery"))
		if err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if next != uint64(len(seqs))+1 {
			t.Fatalf("append got seq %d, want %d", next, len(seqs)+1)
		}
		count := 0
		if err := l.Replay(0, func(uint64, byte, []byte) error {
			count++
			return nil
		}); err != nil {
			t.Fatalf("second replay: %v", err)
		}
		if count != len(seqs)+1 {
			t.Fatalf("second replay saw %d records, want %d", count, len(seqs)+1)
		}
	})
}

// FuzzColReader feeds arbitrary bytes to the colfile reader as an
// in-memory file, the way a handoff blob arrives. Opening may fail, but
// a file that opens must serve every chunk's lanes and payloads and
// materialise exactly the native point count its header declares,
// without panicking or allocating past what the bytes can hold.
func FuzzColReader(f *testing.F) {
	// Small seeds keep mutation and minimisation fast.
	dir := f.TempDir()
	rng := rand.New(rand.NewSource(5))
	tuples := filepath.Join(dir, "tuples.col")
	if err := WriteTuplesFile(tuples, randTuples(rng, 6, true)); err != nil {
		f.Fatal(err)
	}
	part := filepath.Join(dir, "part.col")
	if err := WritePartitioned(part, randTuples(rng, 12, false), 25, 2, geom.Rect{MaxX: 100, MaxY: 100}); err != nil {
		f.Fatal(err)
	}
	for _, path := range []string{tuples, part} {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-5])                         // directory cut short
		f.Add(withHeaderCount(b, 1<<60))            // lying point count
		f.Add(withHeaderCount(b[:colHeaderLen], 0)) // header only
	}

	// Both checksums guard against rot, not lies: whoever writes a blob
	// can recompute them. Each input is also tried resealed, so the
	// mutations reach the count and offset checks behind the CRCs.
	f.Fuzz(func(t *testing.T, data []byte) {
		checkColBlob(t, data)
		checkColBlob(t, resealColBlob(data))
	})
}

// resealColBlob returns a copy of a colfile image with its header CRC,
// and its directory CRC when the header locates one, recomputed.
func resealColBlob(data []byte) []byte {
	if len(data) < colHeaderLen {
		return data
	}
	c := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(c[80:], crc32.ChecksumIEEE(c[:80]))
	n := uint64(binary.LittleEndian.Uint32(c[64:]))
	off := binary.LittleEndian.Uint64(c[72:])
	if end := off + colDirEntry*n; off <= end && end <= uint64(len(c))-4 {
		binary.LittleEndian.PutUint32(c[end:], crc32.ChecksumIEEE(c[off:end]))
	}
	return c
}

// checkColBlob opens data as a colfile; if it opens, every chunk must
// serve lanes and payloads of its directory count, and Tuples exactly
// the native count the header declares.
func checkColBlob(t *testing.T, data []byte) {
	r, err := newColReader(data)
	if err != nil {
		return
	}
	for i := 0; i < r.NumChunks(); i++ {
		if cols := r.Chunk(i); cols.Len() != r.Info(i).Count || len(cols.Ys) != cols.Len() || len(cols.IDs) != cols.Len() {
			t.Fatalf("chunk %d: lanes %d/%d/%d, directory says %d", i, cols.Len(), len(cols.Ys), len(cols.IDs), r.Info(i).Count)
		}
		if pays, err := r.Payloads(i); err == nil && r.HasPayloads() && len(pays) != r.Info(i).Count {
			t.Fatalf("chunk %d: %d payloads for %d points", i, len(pays), r.Info(i).Count)
		}
	}
	if ts, err := r.Tuples(); err == nil && uint64(len(ts)) != r.Count() {
		t.Fatalf("Tuples returned %d, header declares %d", len(ts), r.Count())
	}
}
