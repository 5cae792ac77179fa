package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"
)

func TestCodecReader(t *testing.T) {
	t.Run("round trip", func(t *testing.T) {
		b := []byte{7}
		b = binary.LittleEndian.AppendUint16(b, 0xBEEF)
		b = binary.LittleEndian.AppendUint32(b, 0xDEADBEEF)
		b = binary.LittleEndian.AppendUint64(b, 1<<40)
		minus5 := int64(-5)
		b = binary.LittleEndian.AppendUint64(b, uint64(minus5))
		b = AppendF64(b, -2.5)
		b = AppendStr16(b, "hello")
		b = append(b, "raw"...)
		r := NewReader(b)
		if r.U8() != 7 || r.U16() != 0xBEEF || r.U32() != 0xDEADBEEF || r.U64() != 1<<40 ||
			r.I64() != -5 || r.F64() != -2.5 || r.Str16() != "hello" || string(r.Bytes(3)) != "raw" {
			t.Fatal("values did not round-trip")
		}
		if err := r.Done(); err != nil {
			t.Fatalf("Done: %v", err)
		}
	})

	t.Run("underrun latches", func(t *testing.T) {
		r := NewReader([]byte{1, 2, 3})
		if r.U16() != 0x0201 {
			t.Fatal("first read")
		}
		if r.U32() != 0 || !errors.Is(r.Err(), ErrShort) {
			t.Fatalf("underrun read returned data or err %v", r.Err())
		}
		first := r.Err()
		// The one byte left is never handed out once the reader failed.
		if r.U8() != 0 || r.Bytes(1) != nil || r.Str16() != "" || r.Count(1) != 0 || r.Rest() != nil {
			t.Fatal("reads after the first failure returned data")
		}
		if r.Err() != first || r.Done() != first {
			t.Fatalf("error changed from %v to %v / %v", first, r.Err(), r.Done())
		}
		if empty := NewReader(nil); empty.Bytes(-1) != nil {
			t.Fatal("negative length accepted")
		}
	})

	t.Run("count checks bytes left", func(t *testing.T) {
		b := binary.LittleEndian.AppendUint32(nil, 3)
		b = append(b, make([]byte, 3*8)...)
		if r := NewReader(b); r.Count(8) != 3 || r.Err() != nil {
			t.Fatal("count that fits was rejected")
		}
		r := NewReader(b)
		if n := r.Count(9); n != 0 || !errors.Is(r.Err(), ErrShort) {
			t.Fatalf("count of 3×9 bytes over 24 accepted: n %d err %v", n, r.Err())
		}
		lying := binary.LittleEndian.AppendUint32(nil, 1<<31)
		if r := NewReader(lying); r.Count(1) != 0 || r.Err() == nil {
			t.Fatal("count of 2^31 over 0 bytes accepted")
		}
	})

	t.Run("done reports trailing bytes", func(t *testing.T) {
		r := NewReader([]byte{1, 2})
		r.U8()
		if r.Err() != nil || r.Done() == nil {
			t.Fatal("one trailing byte not reported")
		}
		if rest := r.Rest(); len(rest) != 1 || rest[0] != 2 || r.Done() != nil {
			t.Fatal("Rest did not consume the tail")
		}
	})

	t.Run("unseal", func(t *testing.T) {
		body := []byte("checkpoint body")
		sealed := Seal(append([]byte(nil), body...))
		got, err := Unseal(sealed)
		if err != nil || string(got) != string(body) {
			t.Fatalf("Unseal(Seal(b)) = %q, %v", got, err)
		}
		for i := 0; i < 8*len(sealed); i++ {
			flipped := append([]byte(nil), sealed...)
			flipped[i/8] ^= 1 << (i % 8)
			if _, err := Unseal(flipped); !errors.Is(err, ErrChecksum) {
				t.Fatalf("bit %d flipped: err %v", i, err)
			}
		}
		for n := 0; n < 4; n++ {
			if _, err := Unseal(sealed[:n]); !errors.Is(err, ErrShort) {
				t.Fatalf("%d-byte blob: err %v", n, err)
			}
		}
	})
}

// TestLaneStreaming: a lane written through a small buffer reads back
// through Peek windows of another; a lane longer than the frame's bytes
// left is refused before a byte is read; a stream ending mid-lane is an
// unexpected EOF; a buffer smaller than one value is an error, not a
// spin.
func TestLaneStreaming(t *testing.T) {
	in := make([]uint64, 1000)
	for i := range in {
		in[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	var buf bytes.Buffer
	w := bufio.NewWriterSize(&buf, 20)
	if err := WriteLane(w, in, 8, binary.LittleEndian.AppendUint64); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if buf.Len() != 8*len(in) {
		t.Fatalf("wrote %d bytes, want %d", buf.Len(), 8*len(in))
	}
	read := func(b []byte, left, n int) ([]uint64, int, error) {
		out := make([]uint64, n)
		err := ReadLane(bufio.NewReaderSize(bytes.NewReader(b), 16), &left, out, 8, binary.LittleEndian.Uint64)
		return out, left, err
	}
	out, left, err := read(buf.Bytes(), buf.Len()+3, len(in))
	if err != nil || left != 3 || !slices.Equal(out, in) {
		t.Fatalf("round trip: err %v, %d bytes left (want 3), equal %v", err, left, slices.Equal(out, in))
	}
	if _, _, err := read(buf.Bytes(), buf.Len()-1, len(in)); !errors.Is(err, ErrShort) {
		t.Errorf("a lane longer than the frame: err = %v, want ErrShort", err)
	}
	if _, _, err := read(buf.Bytes()[:100], buf.Len(), len(in)); err != io.ErrUnexpectedEOF {
		t.Errorf("a cut stream: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if err := WriteLane(bufio.NewWriterSize(io.Discard, 4), in, 8, binary.LittleEndian.AppendUint64); err != io.ErrShortBuffer {
		t.Errorf("a 4-byte buffer for 8-byte values: err = %v, want io.ErrShortBuffer", err)
	}
	left = 64
	if err := ReadLane(bufio.NewReaderSize(bytes.NewReader(buf.Bytes()), 16), &left, make([][32]byte, 1), 32,
		func(b []byte) (v [32]byte) { copy(v[:], b); return v }); err != io.ErrShortBuffer {
		t.Errorf("a 16-byte reader for 32-byte values: err = %v, want io.ErrShortBuffer", err)
	}
}
