package colpipe

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refWire encodes s by the layout documented in wire.go, value by value,
// as the protocol-v5 encoder did: groups, ranks, starts, the x, y and id
// lanes, the payload flag and the length-prefixed payloads.
func refWire(s *Slab) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(s.Ranks)))
	for _, v := range append(slices.Clone(s.Ranks), s.Starts...) {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	for _, v := range append(slices.Clone(s.Xs), s.Ys...) {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	for _, v := range s.IDs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	if s.Payloads == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	for _, p := range s.Payloads {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		b = append(b, p...)
	}
	return b
}

// writeWire returns what WriteWire writes for s through a small buffer,
// so every lane crosses many flushes.
func writeWire(t *testing.T, s *Slab) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriterSize(&buf, 32)
	if err := s.WriteWire(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readWire decodes one slab filling b through a small reader, so every
// lane crosses many Peek windows, and checks it consumed exactly b.
func readWire(t *testing.T, b []byte) *Slab {
	t.Helper()
	var s Slab
	left := len(b)
	if err := s.ReadWire(bufio.NewReaderSize(bytes.NewReader(b), 16), &left); err != nil {
		t.Fatal(err)
	}
	if left != 0 {
		t.Fatalf("ReadWire left %d of %d bytes unread", left, len(b))
	}
	return &s
}

// TestWriteWireMatchesReference: WriteWire writes, byte for byte, what
// the documented layout gives, so a worker decoding the v5 task frame
// reads it; ReadWire decodes it back to the same slab.
func TestWriteWireMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := func(groups int, payloads bool) *Slab {
		s := &Slab{Starts: []int32{0}}
		for g := range groups {
			s.Ranks = append(s.Ranks, int32(3*g+rng.Intn(3)))
			for range rng.Intn(40) {
				s.Xs = append(s.Xs, rng.NormFloat64())
				s.Ys = append(s.Ys, rng.NormFloat64())
				s.IDs = append(s.IDs, rng.Int63()-rng.Int63())
				if payloads {
					s.Payloads = append(s.Payloads, bytes.Repeat([]byte{byte(g)}, rng.Intn(3)*rng.Intn(90)))
				}
			}
			s.Starts = append(s.Starts, int32(len(s.IDs)))
		}
		return s
	}
	for name, s := range map[string]*Slab{
		"empty":               {Starts: []int32{0}},
		"empty with payloads": {Starts: []int32{0}, Payloads: [][]byte{}},
		"points":              random(60, false),
		"payloads":            random(60, true),
		"special floats": {Ranks: []int32{1 << 30}, Starts: []int32{0, 3},
			Xs: []float64{math.Inf(-1), math.Copysign(0, -1), math.MaxFloat64},
			Ys: []float64{math.SmallestNonzeroFloat64, math.Inf(1), -1}, IDs: []int64{math.MinInt64, 0, math.MaxInt64}},
	} {
		got, want := writeWire(t, s), refWire(s)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: WriteWire wrote %d bytes differing from the reference layout's %d", name, len(got), len(want))
		}
		if s.WireSize() != len(got) {
			t.Fatalf("%s: WireSize %d, wrote %d", name, s.WireSize(), len(got))
		}
		back := readWire(t, got)
		if !slices.Equal(back.Ranks, s.Ranks) || !slices.Equal(back.Starts, s.Starts) ||
			!slices.Equal(back.Xs, s.Xs) || !slices.Equal(back.Ys, s.Ys) || !slices.Equal(back.IDs, s.IDs) ||
			!slices.EqualFunc(back.Payloads, s.Payloads, bytes.Equal) || (back.Payloads == nil) != (s.Payloads == nil) {
			t.Fatalf("%s: slab changed across the wire", name)
		}
	}
}

// TestReadWireRefusesLyingCounts: a count that the frame's remaining
// bytes cannot hold is an error before anything is allocated for it.
func TestReadWireRefusesLyingCounts(t *testing.T) {
	s := &Slab{Ranks: []int32{4}, Starts: []int32{0, 2}, Xs: []float64{1, 2}, Ys: []float64{3, 4}, IDs: []int64{5, 6},
		Payloads: [][]byte{[]byte("ab"), nil}}
	good := refWire(s)
	for name, c := range map[string]struct {
		at    int
		v     uint32
		short int // bytes the frame claims less than it carries
	}{
		"groups":          {at: 0, v: 1 << 30},
		"rows":            {at: 4 + 4 + 4, v: 1 << 28},
		"payload length":  {at: len(good) - 4 - 2 - 4, v: 1 << 31},
		"frame too short": {at: 0, v: 1, short: 1},
	} {
		b := slices.Clone(good)
		binary.LittleEndian.PutUint32(b[c.at:], c.v)
		var back Slab
		left := len(b) - c.short
		if err := back.ReadWire(bufio.NewReader(bytes.NewReader(b)), &left); err == nil {
			t.Errorf("%s: a lying slab decoded", name)
		}
	}
}
