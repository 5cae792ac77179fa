// Package codec is the one little-endian byte codec behind every wire
// and disk format of the repository: cluster frames, log records,
// checkpoints, engine snapshots, colfile headers, slab and geometry
// payloads. WriteLane and ReadLane stream a lane of fixed-size values
// through a buffered connection for the cluster's task and result
// frames. Everything it decodes may come from another process or an
// earlier run, so its Reader never reads past its input and checks a
// declared element count against the bytes actually present before a
// caller allocates for it.
package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// ErrShort is the error a Reader latches on its first underrun, and the
// error Count's refusals wrap.
var ErrShort = errors.New("codec: input truncated")

// ErrChecksum is Unseal's error for a body that does not match its
// trailer.
var ErrChecksum = errors.New("codec: checksum mismatch")

// Reader is a sticky-error cursor over a byte slice. Every read returns
// the zero value after the first failure, so decoders run straight-line
// and check Err (or Done) once at the end. Bytes and Str16 alias the
// input; callers copy what outlives it.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// next consumes n bytes, or latches ErrShort and returns nil.
func (r *Reader) next(n int) []byte {
	if r.err != nil || n < 0 || len(r.b) < n {
		r.fail(ErrShort)
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.next(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.next(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads a little-endian two's-complement int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a little-endian IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes returns the next n bytes without copying (nil after a failure).
func (r *Reader) Bytes(n int) []byte { return r.next(n) }

// Str16 reads a u16 length-prefixed string.
func (r *Reader) Str16() string { return string(r.next(int(r.U16()))) }

// Count reads a u32 element count and checks it against the bytes left,
// each element taking at least minElem bytes, so a lying count is an
// error before the caller allocates for it.
func (r *Reader) Count(minElem int) int {
	n := int(r.U32())
	if r.err == nil && minElem > 0 && n > len(r.b)/minElem {
		r.fail(fmt.Errorf("%w: %d elements of at least %d bytes, %d bytes left", ErrShort, n, minElem, len(r.b)))
	}
	if r.err != nil {
		return 0
	}
	return n
}

// Rest consumes and returns every unread byte (nil after a failure).
func (r *Reader) Rest() []byte { return r.next(len(r.b)) }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns the first failure, or an error if unread bytes remain.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		return fmt.Errorf("codec: %d trailing bytes", len(r.b))
	}
	return r.err
}

// AppendF64 appends v as a little-endian IEEE-754 float64.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendStr16 appends s with a u16 length prefix, truncating it to
// 65535 bytes.
func AppendStr16(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// WriteLane encodes vs, size bytes each, with put straight into w's
// free buffer space, flushing whenever it fills, so a lane of any length
// streams through w's fixed buffer without a copy of its own. A buffer
// too small for one value is io.ErrShortBuffer.
func WriteLane[T any](w *bufio.Writer, vs []T, size int, put func([]byte, T) []byte) error {
	for len(vs) > 0 {
		if w.Available() < size {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		b := w.AvailableBuffer()
		n := min(len(vs), cap(b)/size)
		if n == 0 {
			return io.ErrShortBuffer
		}
		for _, v := range vs[:n] {
			b = put(b, v)
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		vs = vs[n:]
	}
	return nil
}

// ReadLane fills dst with values of size bytes each, decoded by get
// from Peek windows of r, where r is inside a frame with *left bytes to
// go. A lane longer than *left is ErrShort before anything is read;
// callers sizing dst from a declared count check it against *left the
// same way before they allocate. The stream ending early is
// io.ErrUnexpectedEOF; a buffer too small for one value is
// io.ErrShortBuffer.
func ReadLane[T any](r *bufio.Reader, left *int, dst []T, size int, get func([]byte) T) error {
	if len(dst) > *left/size {
		return fmt.Errorf("%w: %d values of %d bytes, %d bytes left in the frame", ErrShort, len(dst), size, *left)
	}
	if size > r.Size() {
		return io.ErrShortBuffer
	}
	*left -= len(dst) * size
	for len(dst) > 0 {
		n := min(len(dst), r.Size()/size)
		b, err := r.Peek(n * size)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return err
		}
		for i := range dst[:n] {
			dst[i] = get(b[i*size:])
		}
		r.Discard(n * size)
		dst = dst[n:]
	}
	return nil
}

// Seal appends the CRC-32 (IEEE) of b as a little-endian u32 trailer.
func Seal(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// Unseal checks the trailer Seal appended and returns the body before it.
func Unseal(b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, ErrShort
	}
	body := b[:len(b)-4]
	if binary.LittleEndian.Uint32(b[len(body):]) != crc32.ChecksumIEEE(body) {
		return nil, ErrChecksum
	}
	return body, nil
}
