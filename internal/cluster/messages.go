// Typed encode/decode of the protocol's message payloads, shared by the
// coordinator and the worker.

package cluster

import (
	"encoding/binary"
	"fmt"
	"time"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/tuple"
)

// helloMsg is the worker → coordinator handshake.
type helloMsg struct {
	name string
}

func (m helloMsg) encode() []byte {
	b := append([]byte(nil), helloMagic...)
	b = append(b, protoVersion)
	return appendStr16(b, m.name)
}

func decodeHello(b []byte) (helloMsg, error) {
	r := newReader(b)
	if magic := r.take(4); string(magic) != helloMagic {
		return helloMsg{}, fmt.Errorf("cluster: bad hello magic %q", magic)
	}
	if v := r.u8(); v != protoVersion {
		return helloMsg{}, fmt.Errorf("cluster: worker speaks protocol v%d, coordinator v%d", v, protoVersion)
	}
	m := helloMsg{name: r.str16()}
	return m, r.err("hello")
}

// planMsg is the coordinator → worker broadcast of one execution's plan:
// the join parameters, the kernel description, and the opaque broadcast
// blob (encoded grid + graph of agreements + LPT placement).
type planMsg struct {
	id         uint64
	eps        float64
	selfFilter bool
	collect    bool
	kernel     dpe.KernelDesc
	broadcast  []byte
}

const (
	planFlagSelfFilter = 1 << 0
	planFlagCollect    = 1 << 1
)

func (m planMsg) encode() []byte {
	b := binary.LittleEndian.AppendUint64(nil, m.id)
	b = appendF64(b, m.eps)
	var flags byte
	if m.selfFilter {
		flags |= planFlagSelfFilter
	}
	if m.collect {
		flags |= planFlagCollect
	}
	b = append(b, flags, byte(m.kernel.Kind))
	if m.kernel.Kind == dpe.KernelRefPoint {
		for _, f := range []float64{
			m.kernel.Bounds.MinX, m.kernel.Bounds.MinY,
			m.kernel.Bounds.MaxX, m.kernel.Bounds.MaxY,
			m.kernel.GridEps, m.kernel.GridRes,
		} {
			b = appendF64(b, f)
		}
	}
	if m.kernel.Kind == dpe.KernelTwoLayer {
		for _, f := range []float64{
			m.kernel.Bounds.MinX, m.kernel.Bounds.MinY,
			m.kernel.Bounds.MaxX, m.kernel.Bounds.MaxY,
			m.kernel.RefineEps,
		} {
			b = appendF64(b, f)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(m.kernel.TileNX))
		b = binary.LittleEndian.AppendUint32(b, uint32(m.kernel.TileNY))
		b = append(b, m.kernel.Predicate)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.broadcast)))
	return append(b, m.broadcast...)
}

func decodePlan(b []byte) (planMsg, error) {
	r := newReader(b)
	var m planMsg
	m.id = r.u64()
	m.eps = r.f64()
	flags := r.u8()
	m.selfFilter = flags&planFlagSelfFilter != 0
	m.collect = flags&planFlagCollect != 0
	m.kernel.Kind = dpe.KernelKind(r.u8())
	if m.kernel.Kind == dpe.KernelRefPoint {
		m.kernel.Bounds.MinX = r.f64()
		m.kernel.Bounds.MinY = r.f64()
		m.kernel.Bounds.MaxX = r.f64()
		m.kernel.Bounds.MaxY = r.f64()
		m.kernel.GridEps = r.f64()
		m.kernel.GridRes = r.f64()
	}
	if m.kernel.Kind == dpe.KernelTwoLayer {
		m.kernel.Bounds.MinX = r.f64()
		m.kernel.Bounds.MinY = r.f64()
		m.kernel.Bounds.MaxX = r.f64()
		m.kernel.Bounds.MaxY = r.f64()
		m.kernel.RefineEps = r.f64()
		m.kernel.TileNX = int(r.u32())
		m.kernel.TileNY = int(r.u32())
		m.kernel.Predicate = r.u8()
	}
	n := int(r.u32())
	m.broadcast = append([]byte(nil), r.take(n)...)
	return m, r.err("plan")
}

// taskHeader identifies one task attempt: (plan, partition, attempt).
type taskHeader struct {
	plan    uint64
	part    uint32
	attempt uint32
}

func appendTaskHeader(b []byte, h taskHeader) []byte {
	b = binary.LittleEndian.AppendUint64(b, h.plan)
	b = binary.LittleEndian.AppendUint32(b, h.part)
	return binary.LittleEndian.AppendUint32(b, h.attempt)
}

func readTaskHeader(r *reader) taskHeader {
	return taskHeader{plan: r.u64(), part: r.u32(), attempt: r.u32()}
}

// encodeTaskCols frames one reduce partition in the pipeline's native
// columnar form: per side, the slab's wire encoding (group directory,
// raw x/y/id lanes, optional length-prefixed payload column — see
// colpipe's codec), which the worker decodes straight into kernel-ready
// slabs — no tuple structs on either end. The local/remote byte split
// attributes each producing map split's encoded rows by isLocal; the
// group directory bytes belong to the partition, not a producer, and are
// left unattributed.
func encodeTaskCols(h taskHeader, rs, ss *colpipe.Slab, isLocal func(src int) bool) (frame []byte, local, remote int64) {
	b := make([]byte, 0, 16+rs.WireSize()+ss.WireSize())
	b = appendTaskHeader(b, h)
	b = rs.AppendWire(b)
	b = ss.AppendWire(b)
	for _, side := range [2]*colpipe.Slab{rs, ss} {
		for w := range side.WorkerRows {
			if isLocal(w) {
				local += side.WorkerWire(w)
			} else {
				remote += side.WorkerWire(w)
			}
		}
	}
	return appendFrame(msgTaskCols, b), local, remote
}

func decodeTaskCols(b []byte) (h taskHeader, rs, ss *colpipe.Slab, err error) {
	r := newReader(b)
	h = readTaskHeader(r)
	if err := r.err("task"); err != nil {
		return h, nil, nil, err
	}
	rs, ss = &colpipe.Slab{}, &colpipe.Slab{}
	rest, err := rs.DecodeWire(r.b)
	if err == nil {
		rest, err = ss.DecodeWire(rest)
	}
	if err != nil {
		return h, nil, nil, fmt.Errorf("cluster: task frame: %w", err)
	}
	if len(rest) != 0 {
		return h, nil, nil, fmt.Errorf("cluster: task frame carries %d trailing bytes", len(rest))
	}
	return h, rs, ss, nil
}

// resultMsg carries one completed task's join outcome back to the
// coordinator, including the worker-side execution time for the busy
// clocks and straggler statistics.
type resultMsg struct {
	taskHeader
	dur      time.Duration
	results  int64
	checksum uint64
	cost     int64
	pairs    []tuple.Pair
}

func (m resultMsg) encode() []byte {
	b := make([]byte, 0, 16+40+len(m.pairs)*tuple.PairWireSize)
	b = appendTaskHeader(b, m.taskHeader)
	b = binary.LittleEndian.AppendUint64(b, uint64(m.dur))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.results))
	b = binary.LittleEndian.AppendUint64(b, m.checksum)
	b = binary.LittleEndian.AppendUint64(b, uint64(m.cost))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.pairs)))
	for _, p := range m.pairs {
		b = tuple.AppendPair(b, p)
	}
	return b
}

func decodeResult(b []byte) (resultMsg, error) {
	r := newReader(b)
	var m resultMsg
	m.taskHeader = readTaskHeader(r)
	m.dur = time.Duration(r.u64())
	m.results = int64(r.u64())
	m.checksum = r.u64()
	m.cost = int64(r.u64())
	n := int(r.u32())
	if !r.ok || n < 0 || n*tuple.PairWireSize > len(r.b) {
		return m, fmt.Errorf("cluster: result frame declares %d pairs beyond its size", n)
	}
	if n > 0 {
		m.pairs = make([]tuple.Pair, n)
		for i := 0; i < n; i++ {
			p, err := tuple.DecodePair(r.take(tuple.PairWireSize))
			if err != nil {
				return m, err
			}
			m.pairs[i] = p
		}
	}
	return m, r.err("result")
}

// taskErrMsg reports a failed task attempt.
type taskErrMsg struct {
	taskHeader
	msg string
}

func (m taskErrMsg) encode() []byte {
	return appendStr16(appendTaskHeader(nil, m.taskHeader), m.msg)
}

func decodeTaskErr(b []byte) (taskErrMsg, error) {
	r := newReader(b)
	m := taskErrMsg{taskHeader: readTaskHeader(r)}
	m.msg = r.str16()
	return m, r.err("task error")
}

// cancelMsg tells a worker to drop one task (a speculation race it
// lost, or a plan that was abandoned).
type cancelMsg struct {
	plan uint64
	part uint32
}

func (m cancelMsg) encode() []byte {
	b := binary.LittleEndian.AppendUint64(nil, m.plan)
	return binary.LittleEndian.AppendUint32(b, m.part)
}

func decodeCancel(b []byte) (cancelMsg, error) {
	r := newReader(b)
	m := cancelMsg{plan: r.u64(), part: r.u32()}
	return m, r.err("cancel")
}

// traceMsg hands a worker the trace context for one plan: the trace id,
// the execute span its task spans should parent under, and a per-worker
// span-id base so ids minted in different processes never collide when
// stitched at the coordinator. The version byte is echoed so a frame
// replayed across protocol revisions is rejected rather than misparsed.
type traceMsg struct {
	version byte
	plan    uint64
	traceID uint64
	parent  uint64 // span id worker task spans hang under
	idBase  uint64 // first span id (exclusive) this worker may mint
}

func (m traceMsg) encode() []byte {
	b := append([]byte(nil), protoVersion)
	b = binary.LittleEndian.AppendUint64(b, m.plan)
	b = binary.LittleEndian.AppendUint64(b, m.traceID)
	b = binary.LittleEndian.AppendUint64(b, m.parent)
	return binary.LittleEndian.AppendUint64(b, m.idBase)
}

func decodeTrace(b []byte) (traceMsg, error) {
	r := newReader(b)
	m := traceMsg{version: r.u8()}
	if r.ok && m.version != protoVersion {
		return m, fmt.Errorf("cluster: trace frame speaks protocol v%d, want v%d", m.version, protoVersion)
	}
	m.plan = r.u64()
	m.traceID = r.u64()
	m.parent = r.u64()
	m.idBase = r.u64()
	return m, r.err("trace")
}

// spansMsg ships a batch of finished worker-side spans back to the
// coordinator, which stitches them into the plan's trace. Sent on the
// same connection before the task's result frame, so the run is still
// live when the spans arrive.
type spansMsg struct {
	plan  uint64
	spans []obs.Span
}

func (m spansMsg) encode() []byte {
	b := binary.LittleEndian.AppendUint64(nil, m.plan)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.spans)))
	for _, s := range m.spans {
		b = binary.LittleEndian.AppendUint64(b, uint64(s.ID))
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Parent))
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Start))
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Done))
		b = appendStr16(b, s.Name)
		b = appendStr16(b, s.Worker)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(s.Attrs)))
		for _, a := range s.Attrs {
			b = appendStr16(b, a.Key)
			if a.IsStr {
				b = append(b, 1)
				b = appendStr16(b, a.Str)
			} else {
				b = append(b, 0)
				b = binary.LittleEndian.AppendUint64(b, uint64(a.Int))
			}
		}
	}
	return b
}

func decodeSpans(b []byte) (spansMsg, error) {
	r := newReader(b)
	m := spansMsg{plan: r.u64()}
	n := int(r.u32())
	// Each span is at least 8+8+8+8 id/parent/start/done + 2+2 empty
	// names + 2 attr count bytes on the wire.
	if !r.ok || n < 0 || n*38 > len(r.b) {
		return m, fmt.Errorf("cluster: spans frame declares %d spans beyond its size", n)
	}
	m.spans = make([]obs.Span, 0, n)
	for i := 0; i < n; i++ {
		s := obs.Span{
			ID:     obs.SpanID(r.u64()),
			Parent: obs.SpanID(r.u64()),
			Start:  int64(r.u64()),
			Done:   int64(r.u64()),
			Name:   r.str16(),
			Worker: r.str16(),
		}
		na := int(r.u16())
		if !r.ok || na*11 > len(r.b) {
			return m, fmt.Errorf("cluster: spans frame declares %d attrs beyond its size", na)
		}
		for j := 0; j < na; j++ {
			a := obs.Attr{Key: r.str16()}
			if r.u8() == 1 {
				a.IsStr = true
				a.Str = r.str16()
			} else {
				a.Int = int64(r.u64())
			}
			s.Attrs = append(s.Attrs, a)
		}
		m.spans = append(m.spans, s)
	}
	return m, r.err("spans")
}

func encodePlanDone(plan uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, plan)
}

func decodePlanDone(b []byte) (uint64, error) {
	r := newReader(b)
	id := r.u64()
	return id, r.err("plan done")
}
