package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/codec"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/tuple"
)

// Engine checkpoint format (little-endian throughout):
//
//	magic u32 "SJSE" | ver u16 | pad u16
//	eps f64 | bounds 4×f64 | gridRes f64 | policy u8 | pad 7×u8
//	ttl i64 (ns) | rebalanceEvery i64
//	10 cumulative counters i64
//	u32 nTypes | agreement type per canonical pair, 1 byte each
//	per set (R then S): u32 count, then entries sorted by (ts, id):
//	    id i64 | x f64 | y f64 | ts i64 (UnixNano) | u32 payLen | payload
//	crc u32 over everything before
//
// The snapshot stores live points and the agreement store — the
// authoritative driver-side state. Slabs, histograms, and the graph are
// deterministic functions of those and are rebuilt on Restore by
// re-inserting the points under the restored agreements.
const (
	ckMagic   = 0x45534A53 // "SJSE" little-endian
	ckVersion = 1
)

// WriteCheckpoint serialises the engine's state. The snapshot is taken
// atomically with respect to Apply, so pairing it with the log position
// of the last applied batch gives exact at-most-once replay.
func (e *Engine) WriteCheckpoint(w io.Writer) error {
	e.mu.Lock()
	b := make([]byte, 0, 1024)
	b = binary.LittleEndian.AppendUint32(b, ckMagic)
	b = binary.LittleEndian.AppendUint16(b, ckVersion)
	b = binary.LittleEndian.AppendUint16(b, 0)
	b = codec.AppendF64(b, e.cfg.Eps)
	b = codec.AppendF64(b, e.cfg.Bounds.MinX)
	b = codec.AppendF64(b, e.cfg.Bounds.MinY)
	b = codec.AppendF64(b, e.cfg.Bounds.MaxX)
	b = codec.AppendF64(b, e.cfg.Bounds.MaxY)
	b = codec.AppendF64(b, e.cfg.GridRes)
	b = append(b, byte(e.cfg.Policy), 0, 0, 0, 0, 0, 0, 0)
	b = binary.LittleEndian.AppendUint64(b, uint64(e.cfg.TTL))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.cfg.RebalanceEvery))
	for _, v := range []int64{
		e.c.Upserts, e.c.Deletes, e.c.Expired, e.c.Rejected,
		e.c.DeltasAdded, e.c.DeltasRemoved, e.c.SlabRebuilds,
		e.c.RebalanceRuns, e.c.AgreementFlips, e.c.Migrations,
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.dg.types)))
	for _, t := range e.dg.types {
		b = append(b, byte(t))
	}
	for set := tuple.R; set <= tuple.S; set++ {
		entries := make([]*entry, 0, len(e.live[set]))
		for _, en := range e.live[set] {
			entries = append(entries, en)
		}
		sort.Slice(entries, func(i, j int) bool {
			if !entries[i].ts.Equal(entries[j].ts) {
				return entries[i].ts.Before(entries[j].ts)
			}
			return entries[i].t.ID < entries[j].t.ID
		})
		b = binary.LittleEndian.AppendUint32(b, uint32(len(entries)))
		for _, en := range entries {
			b = binary.LittleEndian.AppendUint64(b, uint64(en.t.ID))
			b = codec.AppendF64(b, en.t.Pt.X)
			b = codec.AppendF64(b, en.t.Pt.Y)
			b = binary.LittleEndian.AppendUint64(b, uint64(en.ts.UnixNano()))
			b = binary.LittleEndian.AppendUint32(b, uint32(len(en.t.Payload)))
			b = append(b, en.t.Payload...)
		}
	}
	e.mu.Unlock()
	_, err := w.Write(codec.Seal(b))
	return err
}

// Restore rebuilds an engine from a checkpoint blob written by
// WriteCheckpoint. cfg must describe the same stream the snapshot was
// taken from (both sides derive it from the stream's durable spec); a
// mismatch is an error, not a silent re-partitioning. The restored
// engine reproduces the original's live points, agreement store,
// cumulative counters, and TTL ordering exactly.
func Restore(cfg Config, blob []byte) (*Engine, error) {
	body, err := codec.Unseal(blob)
	if err != nil {
		return nil, fmt.Errorf("stream: checkpoint: %w", err)
	}
	c := codec.NewReader(body)
	if c.U32() != ckMagic {
		return nil, errors.New("stream: not an engine checkpoint")
	}
	if v := c.U16(); v != ckVersion {
		return nil, fmt.Errorf("stream: checkpoint version %d unsupported (want %d)", v, ckVersion)
	}
	c.U16() // pad

	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	eps := c.F64()
	bounds := geom.Rect{MinX: c.F64(), MinY: c.F64(), MaxX: c.F64(), MaxY: c.F64()}
	gridRes := c.F64()
	policy := agreements.Policy(c.U8())
	c.Bytes(7) // pad
	ttl := time.Duration(c.I64())
	rebEvery := c.I64()
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("stream: checkpoint: %w", err)
	}
	if eps != e.cfg.Eps || bounds != e.cfg.Bounds || gridRes != e.cfg.GridRes ||
		policy != e.cfg.Policy || ttl != e.cfg.TTL || rebEvery != int64(e.cfg.RebalanceEvery) {
		return nil, fmt.Errorf("stream: checkpoint was taken for a different stream configuration")
	}

	var counters [10]int64
	for i := range counters {
		counters[i] = c.I64()
	}
	nTypes := int(c.U32())
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("stream: checkpoint: %w", err)
	}
	if nTypes != len(e.dg.types) {
		return nil, fmt.Errorf("stream: checkpoint has %d agreement slots, grid needs %d", nTypes, len(e.dg.types))
	}
	for i, tb := range c.Bytes(nTypes) {
		if tb > byte(tuple.S) {
			return nil, fmt.Errorf("stream: invalid agreement type %d at slot %d", tb, i)
		}
		e.dg.types[i] = tuple.Set(tb)
	}
	// Rebuild the graph from the restored agreement store before any
	// insert, so every point is assigned exactly as the original engine
	// would assign it under those agreements.
	e.dg.graph = agreements.BuildFromTypeFunc(e.dg.g, e.dg.typeBetween)

	for set := tuple.R; set <= tuple.S; set++ {
		n := c.Count(28) // id + x + y + ts + payLen
		var prev time.Time
		for i := 0; i < n; i++ {
			id := c.I64()
			pt := geom.Point{X: c.F64(), Y: c.F64()}
			ts := time.Unix(0, c.I64())
			pay := c.Bytes(int(c.U32()))
			if err := c.Err(); err != nil {
				return nil, fmt.Errorf("stream: checkpoint: %w", err)
			}
			if i > 0 && ts.Before(prev) {
				return nil, errors.New("stream: checkpoint entries out of TTL order")
			}
			prev = ts
			if badPoint(pt) {
				return nil, fmt.Errorf("stream: checkpoint point %d is not finite", id)
			}
			t := tuple.Tuple{ID: id, Pt: pt}
			if len(pay) > 0 {
				t.Payload = append([]byte(nil), pay...)
			}
			e.upsertLocked(set, t, ts)
		}
	}
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("stream: checkpoint: %w", err)
	}

	// Re-inserting emitted cross-set deltas and bumped counters; there
	// are no subscribers yet, so drop the deltas and overwrite the
	// cumulative counters with the snapshot's (Replicas and the live
	// gauges were recomputed by the inserts themselves).
	e.pending = e.pending[:0]
	e.dirty = map[int]struct{}{}
	e.sinceReb = 0
	e.c.Upserts = counters[0]
	e.c.Deletes = counters[1]
	e.c.Expired = counters[2]
	e.c.Rejected = counters[3]
	e.c.DeltasAdded = counters[4]
	e.c.DeltasRemoved = counters[5]
	e.c.SlabRebuilds = counters[6]
	e.c.RebalanceRuns = counters[7]
	e.c.AgreementFlips = counters[8]
	e.c.Migrations = counters[9]
	return e, nil
}
