package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"spatialjoin/internal/codec"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/tuple"
)

// Engine checkpoint format (little-endian throughout):
//
//	magic u32 "SJSE" | ver u16 | pad u16
//	eps f64 | bounds 4×f64 | gridRes f64 | policy u8 | pad 7×u8
//	ttl i64 (ns) | rebalanceEvery i64
//	10 cumulative counters i64
//	u32 nTypes | agreement type per canonical pair, 1 byte each:
//	    4 slots per cell, one per canonDirs entry (R where the cell has
//	    no neighbour in that direction)
//	per set (R then S): u32 count, then entries sorted by (ts, id):
//	    id i64 | x f64 | y f64 | ts i64 (UnixNano) | u32 payLen | payload
//	crc u32 over everything before
//
// The snapshot stores live points and the graph's agreement types — the
// authoritative partitioning state. Slabs, histograms, and the graph's
// marks are deterministic functions of those and are rebuilt on Restore
// by re-inserting the points under the restored agreements.
const (
	ckMagic   = 0x45534A53 // "SJSE" little-endian
	ckVersion = 1
)

// appendHeader appends the checkpoint header up to and including the
// configuration fields; Restore compares a blob's header with its own
// config's byte for byte.
func (c Config) appendHeader(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, ckMagic)
	b = binary.LittleEndian.AppendUint16(b, ckVersion)
	b = binary.LittleEndian.AppendUint16(b, 0)
	b = codec.AppendF64(b, c.Eps)
	b = codec.AppendF64(b, c.Bounds.MinX)
	b = codec.AppendF64(b, c.Bounds.MinY)
	b = codec.AppendF64(b, c.Bounds.MaxX)
	b = codec.AppendF64(b, c.Bounds.MaxY)
	b = codec.AppendF64(b, c.GridRes)
	b = append(b, byte(c.Policy), 0, 0, 0, 0, 0, 0, 0)
	b = binary.LittleEndian.AppendUint64(b, uint64(c.TTL))
	return binary.LittleEndian.AppendUint64(b, uint64(c.RebalanceEvery))
}

// WriteCheckpoint serialises the engine's state. The snapshot is taken
// atomically with respect to Apply, so pairing it with the log position
// of the last applied batch gives exact at-most-once replay.
func (e *Engine) WriteCheckpoint(w io.Writer) error {
	e.mu.Lock()
	b := e.cfg.appendHeader(make([]byte, 0, 1024))
	for _, v := range []int64{
		e.c.Upserts, e.c.Deletes, e.c.Expired, e.c.Rejected,
		e.c.DeltasAdded, e.c.DeltasRemoved, e.c.SlabRebuilds,
		e.c.RebalanceRuns, e.c.AgreementFlips, e.c.Migrations,
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(4*e.g.NumCells()))
	for id := 0; id < e.g.NumCells(); id++ {
		cx, cy := e.g.CellCoords(id)
		for _, dir := range canonDirs {
			t := tuple.R
			if e.g.Neighbor(cx, cy, dir) != grid.NoCell {
				t = e.graph.PairType(cx, cy, dir)
			}
			b = append(b, byte(t))
		}
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
// engine reproduces the original's live points, agreement types,
// cumulative counters, and TTL ordering exactly, and re-encodes to the
// same bytes: a blob the writer could not have produced is refused.
// Placement and Counters().Replicas follow from the types and match too.
// The drift scan's window (mutations and dirty cells since the last
// scan) is not stored; the restored engine starts a fresh one.
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

	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	head := e.cfg.appendHeader(nil)
	if !bytes.HasPrefix(body, head) {
		return nil, fmt.Errorf("stream: checkpoint was taken for a different stream configuration")
	}
	c = codec.NewReader(body[len(head):])

	var counters [10]int64
	for i := range counters {
		counters[i] = c.I64()
	}
	nTypes := int(c.U32())
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("stream: checkpoint: %w", err)
	}
	if nTypes != 4*e.g.NumCells() {
		return nil, fmt.Errorf("stream: checkpoint has %d agreement slots, grid needs %d", nTypes, 4*e.g.NumCells())
	}
	// Restore the graph's types before any insert, so every point is
	// assigned exactly as the original engine assigns it: the live
	// rebalancer changes the graph only through SetPairType too, which
	// resolves quartets from their types alone.
	for i, tb := range c.Bytes(nTypes) {
		t := tuple.Set(tb)
		cx, cy := e.g.CellCoords(i / 4)
		dir := canonDirs[i%4]
		switch {
		case tb > byte(tuple.S):
			return nil, fmt.Errorf("stream: invalid agreement type %d at slot %d", tb, i)
		case e.g.Neighbor(cx, cy, dir) == grid.NoCell:
			if t != tuple.R {
				return nil, fmt.Errorf("stream: agreement type %v at slot %d names a pair outside the grid", t, i)
			}
		case t != e.graph.PairType(cx, cy, dir):
			e.graph.SetPairType(cx, cy, dir, t)
		}
	}

	for set := tuple.R; set <= tuple.S; set++ {
		n := c.Count(28) // id + x + y + ts + payLen
		var prev time.Time
		var prevID int64
		for i := 0; i < n; i++ {
			id := c.I64()
			pt := geom.Point{X: c.F64(), Y: c.F64()}
			ts := time.Unix(0, c.I64())
			pay := c.Bytes(int(c.U32()))
			if err := c.Err(); err != nil {
				return nil, fmt.Errorf("stream: checkpoint: %w", err)
			}
			if i > 0 && (ts.Before(prev) || ts.Equal(prev) && id <= prevID) {
				return nil, errors.New("stream: checkpoint entries out of (ts, id) order")
			}
			prev, prevID = ts, id
			if _, dup := e.live[set][id]; dup {
				return nil, fmt.Errorf("stream: checkpoint holds point %d twice", id)
			}
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
	clear(e.dirty)
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
