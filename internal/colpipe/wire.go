// Wire codec of a Slab — the payload of the cluster's task frame, kept
// next to the format it serialises.
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
	"encoding/binary"
	"errors"
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

// AppendWire appends the slab's wire encoding to b.
func (s *Slab) AppendWire(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Ranks)))
	for _, r := range s.Ranks {
		b = binary.LittleEndian.AppendUint32(b, uint32(r))
	}
	for _, o := range s.Starts {
		b = binary.LittleEndian.AppendUint32(b, uint32(o))
	}
	for _, x := range s.Xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	for _, y := range s.Ys {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(y))
	}
	for _, id := range s.IDs {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
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

// DecodeWire fills s from the encoding at the head of b and returns the
// unread remainder. Every declared count is checked against the bytes
// actually present before anything is allocated, so a lying frame is an
// error, never a panic or an oversized allocation. The fixed lanes are
// copied out of b; payloads alias it.
func (s *Slab) DecodeWire(b []byte) (rest []byte, err error) {
	r := codec.NewReader(b)
	ng := r.Count(8) // a rank and a start per group
	ranks, starts := r.Bytes(4*ng), r.Bytes(4*ng+4)
	if r.Err() != nil {
		return nil, errors.New("colpipe: slab declares more groups than it carries")
	}
	s.Ranks, s.Starts = decodeI32s(ranks), decodeI32s(starts)
	if s.Starts[0] != 0 || !slices.IsSorted(s.Starts) {
		return nil, errors.New("colpipe: slab group offsets are not monotonic from 0")
	}
	rows := int(s.Starts[ng])
	lanes, flag := r.Bytes(RowWire*rows), r.U8()
	if r.Err() != nil {
		return nil, errors.New("colpipe: slab declares more rows than it carries")
	}
	s.Xs, s.Ys, s.IDs = make([]float64, rows), make([]float64, rows), make([]int64, rows)
	for i := 0; i < rows; i++ {
		s.Xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(lanes[8*i:]))
		s.Ys[i] = math.Float64frombits(binary.LittleEndian.Uint64(lanes[8*(rows+i):]))
		s.IDs[i] = int64(binary.LittleEndian.Uint64(lanes[8*(2*rows+i):]))
	}
	s.Payloads = nil
	switch flag {
	case 0:
		return r.Rest(), nil
	case 1:
	default:
		return nil, errors.New("colpipe: slab payload column has a bad flag")
	}
	// rows is bounded by the lanes just read, so the column's slice
	// headers cost no more than those lanes did.
	s.Payloads = make([][]byte, rows)
	for i := 0; i < rows && r.Err() == nil; i++ {
		if p := r.Bytes(int(r.U32())); len(p) > 0 {
			s.Payloads[i] = p
		}
	}
	if r.Err() != nil {
		return nil, errors.New("colpipe: slab payload column is shorter than its lengths")
	}
	return r.Rest(), nil
}

// decodeI32s reads the little-endian u32s filling b.
func decodeI32s(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}
