// Wire codec of a Slab — the payload of the cluster's task frame, kept
// next to the format it serialises. A slab streams between its lanes
// and a connection's buffers: WriteWire encodes each lane in chunks
// into a bufio.Writer's free space, and ReadWire decodes Peek windows of
// a bufio.Reader straight into exactly sized lanes, so neither end holds
// the encoded slab in memory.
//
//	groups u32 | ranks u32×g | starts u32×(g+1) |
//	xs f64×n | ys f64×n | ids i64×n |
//	hasPayload u8 | [ (len u32 | bytes)×n ]
//
// All little-endian; the row count n is the last group offset. The
// per-producer attribution (WorkerRows/WorkerBytes) and the modelled
// byte counter do not travel: they belong to the shuffle, not the task.

package colpipe

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"

	"spatialjoin/internal/codec"
)

// RowWire is the wire footprint of one row's fixed lanes: f64 x, f64 y,
// i64 id (ranks live in the group directory, not per row).
const RowWire = 8 + 8 + 8

// payloadLenWire is the per-row length prefix of the payload column.
const payloadLenWire = 4

// WireSize returns the encoded size of the slab.
func (s *Slab) WireSize() int {
	n := 4 + 4*len(s.Ranks) + 4*len(s.Starts) + RowWire*s.Rows() + 1
	for _, p := range s.Payloads {
		n += payloadLenWire + len(p)
	}
	return n
}

// WorkerWire returns the encoded row bytes attributable to producing
// map split w: its rows' fixed lanes plus, on a payload slab, their
// length prefixes and payload bytes. The group directory belongs to the
// partition, not a producer, and is left out.
func (s *Slab) WorkerWire(w int) int64 {
	n := RowWire * int64(s.WorkerRows[w])
	if s.WorkerPayload != nil {
		n += payloadLenWire*int64(s.WorkerRows[w]) + s.WorkerPayload[w]
	}
	return n
}

// WriteWire writes the slab's wire encoding, WireSize bytes, to w: each
// lane is encoded in chunks straight into w's buffer, so no copy of the
// slab exists on its way to the connection.
func (s *Slab) WriteWire(w *bufio.Writer) error {
	// A bufio.Writer's first error sticks: every later write stops at
	// it, and the last one below reports it.
	writeU32(w, len(s.Ranks))
	codec.WriteLane(w, s.Ranks, 4, putI32)
	codec.WriteLane(w, s.Starts, 4, putI32)
	codec.WriteLane(w, s.Xs, 8, codec.AppendF64)
	codec.WriteLane(w, s.Ys, 8, codec.AppendF64)
	codec.WriteLane(w, s.IDs, 8, putI64)
	if s.Payloads == nil {
		return w.WriteByte(0)
	}
	w.WriteByte(1)
	for _, p := range s.Payloads {
		writeU32(w, len(p))
		w.Write(p)
	}
	_, err := w.Write(nil)
	return err
}

// ReadWire fills s from the encoding at the head of r, inside a frame
// with *left bytes to go, and counts what it consumes off *left. Every
// declared count is checked against *left before anything is
// allocated, so a lying frame is an error, never a panic or an
// allocation past the frame's declared length. Lanes are decoded
// straight from r's buffer into exactly sized slices; payloads get
// their own storage.
func (s *Slab) ReadWire(r *bufio.Reader, left *int) error {
	var u32 [1]uint32
	if err := codec.ReadLane(r, left, u32[:], 4, getU32); err != nil {
		return err
	}
	g := int(u32[0])
	if *left < 4 || g > (*left-4)/8 { // a rank and a start per group, and a last start
		return errors.New("colpipe: slab declares more groups than it carries")
	}
	s.Ranks, s.Starts = make([]int32, g), make([]int32, g+1)
	if err := codec.ReadLane(r, left, s.Ranks, 4, getI32); err != nil {
		return err
	}
	if err := codec.ReadLane(r, left, s.Starts, 4, getI32); err != nil {
		return err
	}
	if s.Starts[0] != 0 || !slices.IsSorted(s.Starts) {
		return errors.New("colpipe: slab group offsets are not monotonic from 0")
	}
	rows := int(s.Starts[g])
	if *left < 1 || rows > (*left-1)/RowWire { // the lanes, then the payload flag
		return errors.New("colpipe: slab declares more rows than it carries")
	}
	s.Xs, s.Ys, s.IDs = make([]float64, rows), make([]float64, rows), make([]int64, rows)
	var flag [1]byte
	err := codec.ReadLane(r, left, s.Xs, 8, getF64)
	if err == nil {
		err = codec.ReadLane(r, left, s.Ys, 8, getF64)
	}
	if err == nil {
		err = codec.ReadLane(r, left, s.IDs, 8, getI64)
	}
	if err == nil {
		err = codec.ReadLane(r, left, flag[:], 1, getU8)
	}
	s.Payloads = nil
	if err != nil || flag[0] == 0 {
		return err
	}
	if flag[0] != 1 {
		return errors.New("colpipe: slab payload column has a bad flag")
	}
	// rows is bounded by the lanes just read, so the column's slice
	// headers cost no more than those lanes did.
	s.Payloads = make([][]byte, rows)
	for i := range s.Payloads {
		if codec.ReadLane(r, left, u32[:], 4, getU32) != nil || int(u32[0]) > *left {
			return errors.New("colpipe: slab payload column is shorter than its lengths")
		}
		if u32[0] == 0 {
			continue
		}
		s.Payloads[i] = make([]byte, u32[0])
		*left -= int(u32[0])
		if _, err := io.ReadFull(r, s.Payloads[i]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// writeU32 writes one u32 through w's buffer.
func writeU32(w *bufio.Writer, v int) {
	w.Write(binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(v)))
}

func putI32(b []byte, v int32) []byte { return binary.LittleEndian.AppendUint32(b, uint32(v)) }
func putI64(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }
func getU8(b []byte) byte             { return b[0] }
func getU32(b []byte) uint32          { return binary.LittleEndian.Uint32(b) }
func getI32(b []byte) int32           { return int32(binary.LittleEndian.Uint32(b)) }
func getI64(b []byte) int64           { return int64(binary.LittleEndian.Uint64(b)) }
func getF64(b []byte) float64         { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
