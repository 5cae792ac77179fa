package codec

import (
	"encoding/binary"
	"errors"
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
