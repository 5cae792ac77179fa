package dstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"spatialjoin/internal/codec"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/tuple"
)

// Log record types. The payload formats are versioned implicitly by the
// segment header version: a format change bumps segVersion.
const (
	recDatasetPut    byte = 1 // dataset registered/replaced wholesale
	recDatasetApply  byte = 2 // incremental upserts/deletes on a dataset
	recDatasetDelete byte = 3 // dataset dropped
	recStreamCreate  byte = 4 // stream engine created
	recStreamDelete  byte = 5 // stream engine dropped
	recStreamBatch   byte = 6 // one acked batch of stream mutations
	recSkew          byte = 7 // an observed per-(R,S,eps) skew report
	recTelem         byte = 8 // latest-wins telemetry rollup snapshot (opaque)
)

// --- recDatasetPut ---

// datasetPutRec records a wholesale dataset registration: the tuples
// themselves live in the columnar file at File (relative to the store
// root), written and fsynced before this record is appended.
type datasetPutRec struct {
	Name   string
	Rev    int64
	File   string
	Points uint64
}

func (r datasetPutRec) encode(b []byte) []byte {
	b = codec.AppendStr16(b, r.Name)
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Rev))
	b = codec.AppendStr16(b, r.File)
	return binary.LittleEndian.AppendUint64(b, r.Points)
}

func decodeDatasetPut(p []byte) (datasetPutRec, error) {
	c := codec.NewReader(p)
	r := datasetPutRec{Name: c.Str16(), Rev: c.I64(), File: c.Str16(), Points: c.U64()}
	return r, c.Done()
}

// --- recDatasetApply ---

// datasetApplyRec records an incremental mutation batch against a
// registered dataset, carrying the post-apply generation counter so a
// restart restores exactly the generation the plan cache keyed on.
type datasetApplyRec struct {
	Name    string
	Gen     int64
	Upserts []tuple.Tuple
	Deletes []int64
}

func (r datasetApplyRec) encode(b []byte) []byte {
	b = codec.AppendStr16(b, r.Name)
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Gen))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Upserts)))
	for _, t := range r.Upserts {
		b = binary.LittleEndian.AppendUint64(b, uint64(t.ID))
		b = codec.AppendF64(b, t.Pt.X)
		b = codec.AppendF64(b, t.Pt.Y)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(t.Payload)))
		b = append(b, t.Payload...)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Deletes)))
	for _, id := range r.Deletes {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	return b
}

func decodeDatasetApply(p []byte) (datasetApplyRec, error) {
	c := codec.NewReader(p)
	r := datasetApplyRec{Name: c.Str16(), Gen: c.I64()}
	nup := c.Count(28) // id + x + y + payLen
	if nup > 0 {
		r.Upserts = make([]tuple.Tuple, 0, nup)
	}
	for i := 0; i < nup && c.Err() == nil; i++ {
		t := tuple.Tuple{ID: c.I64(), Pt: geom.Point{X: c.F64(), Y: c.F64()}}
		if n := int(c.U32()); n > 0 {
			t.Payload = append([]byte(nil), c.Bytes(n)...)
		}
		r.Upserts = append(r.Upserts, t)
	}
	ndel := c.Count(8)
	if ndel > 0 {
		r.Deletes = make([]int64, 0, ndel)
	}
	for i := 0; i < ndel && c.Err() == nil; i++ {
		r.Deletes = append(r.Deletes, c.I64())
	}
	return r, c.Done()
}

// --- recDatasetDelete / recStreamDelete ---

func encodeName(b []byte, name string) []byte { return codec.AppendStr16(b, name) }

func decodeName(p []byte) (string, error) {
	c := codec.NewReader(p)
	name := c.Str16()
	return name, c.Done()
}

// --- recStreamCreate ---

// StreamSpec is the durable description of a stream engine; it mirrors
// the service-level stream configuration and is stored as JSON so new
// optional fields stay backward compatible.
type StreamSpec struct {
	Name           string  `json:"name"`
	Eps            float64 `json:"eps"`
	MinX           float64 `json:"min_x"`
	MinY           float64 `json:"min_y"`
	MaxX           float64 `json:"max_x"`
	MaxY           float64 `json:"max_y"`
	GridRes        float64 `json:"grid_res,omitempty"`
	Policy         string  `json:"policy,omitempty"`
	TTLMillis      int64   `json:"ttl_ms,omitempty"`
	RebalanceEvery int     `json:"rebalance_every,omitempty"`
	RDataset       string  `json:"r_dataset,omitempty"`
	SDataset       string  `json:"s_dataset,omitempty"`
}

func encodeStreamCreate(b []byte, spec StreamSpec) ([]byte, error) {
	j, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(j)))
	return append(b, j...), nil
}

func decodeStreamCreate(p []byte) (StreamSpec, error) {
	c := codec.NewReader(p)
	j := c.Bytes(int(c.U32()))
	var spec StreamSpec
	if c.Err() == nil {
		if err := json.Unmarshal(j, &spec); err != nil {
			return spec, fmt.Errorf("dstore: stream spec: %w", err)
		}
	}
	return spec, c.Done()
}

// --- recStreamBatch ---

const (
	mutDelete = 1 << 0 // mutation removes the id instead of upserting
	mutSetS   = 1 << 1 // mutation targets set S (else R)
)

// StreamMutation is one durable stream mutation; Set is 0 for R, 1 for S.
type StreamMutation struct {
	Set    uint8
	Delete bool
	Tuple  tuple.Tuple
}

// streamBatchRec records one acked Apply batch with the wall-clock time
// it was applied at, so TTL expiry replays deterministically.
type streamBatchRec struct {
	Name      string
	AppliedAt int64 // UnixNano
	Muts      []StreamMutation
}

func (r streamBatchRec) encode(b []byte) []byte {
	b = codec.AppendStr16(b, r.Name)
	b = binary.LittleEndian.AppendUint64(b, uint64(r.AppliedAt))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Muts)))
	for _, m := range r.Muts {
		var flags byte
		if m.Delete {
			flags |= mutDelete
		}
		if m.Set != 0 {
			flags |= mutSetS
		}
		b = append(b, flags)
		b = binary.LittleEndian.AppendUint64(b, uint64(m.Tuple.ID))
		b = codec.AppendF64(b, m.Tuple.Pt.X)
		b = codec.AppendF64(b, m.Tuple.Pt.Y)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Tuple.Payload)))
		b = append(b, m.Tuple.Payload...)
	}
	return b
}

func decodeStreamBatch(p []byte) (streamBatchRec, error) {
	c := codec.NewReader(p)
	r := streamBatchRec{Name: c.Str16(), AppliedAt: c.I64()}
	n := c.Count(29) // flags + id + x + y + payLen
	if n > 0 {
		r.Muts = make([]StreamMutation, 0, n)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		flags := c.U8()
		m := StreamMutation{
			Delete: flags&mutDelete != 0,
			Tuple:  tuple.Tuple{ID: c.I64(), Pt: geom.Point{X: c.F64(), Y: c.F64()}},
		}
		if flags&mutSetS != 0 {
			m.Set = 1
		}
		if pn := int(c.U32()); pn > 0 {
			m.Tuple.Payload = append([]byte(nil), c.Bytes(pn)...)
		}
		r.Muts = append(r.Muts, m)
	}
	return r, c.Done()
}

// --- recSkew ---

// SkewSample is one persisted skew observation for a (R, S, eps) join
// key: the planner-history seed the feedback-driven planner will learn
// from across restarts. Report is stored as raw JSON so dstore does not
// depend on the obs package's struct layout.
type SkewSample struct {
	R      string          `json:"r"`
	S      string          `json:"s"`
	Eps    float64         `json:"eps"`
	UnixMS int64           `json:"unix_ms"`
	Report json.RawMessage `json:"report"`
}

func encodeSkew(b []byte, s SkewSample) ([]byte, error) {
	j, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(j)))
	return append(b, j...), nil
}

func decodeSkew(p []byte) (SkewSample, error) {
	c := codec.NewReader(p)
	j := c.Bytes(int(c.U32()))
	var s SkewSample
	if c.Err() == nil {
		if err := json.Unmarshal(j, &s); err != nil {
			return s, fmt.Errorf("dstore: skew sample: %w", err)
		}
	}
	return s, c.Done()
}

// --- recTelem ---

// The telemetry snapshot is an opaque blob owned by the service layer
// (internal/telem's JSON form); dstore only frames it. Records are
// latest-wins: replay keeps the highest-sequence blob.

func encodeTelem(b []byte, blob []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(blob)))
	return append(b, blob...)
}

func decodeTelem(p []byte) ([]byte, error) {
	c := codec.NewReader(p)
	blob := append([]byte(nil), c.Bytes(int(c.U32()))...)
	return blob, c.Done()
}
