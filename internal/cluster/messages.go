// Typed encode/decode of the protocol's message payloads, shared by the
// coordinator and the worker.

package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"spatialjoin/internal/codec"
	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/tuple"
)

// short is the error of a frame whose reader ran out of bytes.
func short(r *codec.Reader, msg string) error {
	if r.Err() == nil {
		return nil
	}
	return fmt.Errorf("cluster: short %s frame", msg)
}

// helloMsg is the worker → coordinator handshake.
type helloMsg struct {
	name string
}

func (m helloMsg) encode() []byte {
	b := append([]byte(nil), helloMagic...)
	b = append(b, protoVersion)
	return codec.AppendStr16(b, m.name)
}

func decodeHello(b []byte) (helloMsg, error) {
	r := codec.NewReader(b)
	if magic := r.Bytes(4); string(magic) != helloMagic {
		return helloMsg{}, fmt.Errorf("cluster: bad hello magic %q", magic)
	}
	if v := r.U8(); v != protoVersion {
		return helloMsg{}, fmt.Errorf("cluster: worker speaks protocol v%d, coordinator v%d", v, protoVersion)
	}
	m := helloMsg{name: r.Str16()}
	return m, short(&r, "hello")
}

// planMsg is the coordinator → worker plan of one execution, sent to
// each worker once: the join parameters, the kernel description and the
// trace context. The trace context is the trace id, the execute span
// the worker's task spans parent under, and a per-worker span-id base so
// ids minted in different processes never collide when stitched at the
// coordinator; all three are zero when the join is untraced.
type planMsg struct {
	id         uint64
	eps        float64
	selfFilter bool
	collect    bool
	kernel     dpe.KernelDesc
	traceID    uint64
	parent     uint64 // span id worker task spans hang under
	idBase     uint64 // first span id (exclusive) this worker may mint
}

const (
	planFlagSelfFilter = 1 << 0
	planFlagCollect    = 1 << 1
)

func (m planMsg) encode() []byte {
	b := binary.LittleEndian.AppendUint64(nil, m.id)
	b = codec.AppendF64(b, m.eps)
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
			b = codec.AppendF64(b, f)
		}
	}
	if m.kernel.Kind == dpe.KernelTwoLayer {
		for _, f := range []float64{
			m.kernel.Bounds.MinX, m.kernel.Bounds.MinY,
			m.kernel.Bounds.MaxX, m.kernel.Bounds.MaxY,
			m.kernel.RefineEps,
		} {
			b = codec.AppendF64(b, f)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(m.kernel.TileNX))
		b = binary.LittleEndian.AppendUint32(b, uint32(m.kernel.TileNY))
		b = append(b, m.kernel.Predicate)
	}
	b = binary.LittleEndian.AppendUint64(b, m.traceID)
	b = binary.LittleEndian.AppendUint64(b, m.parent)
	return binary.LittleEndian.AppendUint64(b, m.idBase)
}

func decodePlan(b []byte) (planMsg, error) {
	r := codec.NewReader(b)
	var m planMsg
	m.id = r.U64()
	m.eps = r.F64()
	flags := r.U8()
	m.selfFilter = flags&planFlagSelfFilter != 0
	m.collect = flags&planFlagCollect != 0
	k := &m.kernel
	k.Kind = dpe.KernelKind(r.U8())
	switch k.Kind {
	case dpe.KernelRefPoint:
		k.Bounds = geom.Rect{MinX: r.F64(), MinY: r.F64(), MaxX: r.F64(), MaxY: r.F64()}
		k.GridEps, k.GridRes = r.F64(), r.F64()
	case dpe.KernelTwoLayer:
		k.Bounds = geom.Rect{MinX: r.F64(), MinY: r.F64(), MaxX: r.F64(), MaxY: r.F64()}
		k.RefineEps = r.F64()
		k.TileNX, k.TileNY = int(r.U32()), int(r.U32())
		k.Predicate = r.U8()
	}
	m.traceID, m.parent, m.idBase = r.U64(), r.U64(), r.U64()
	if err := short(&r, "plan"); err != nil {
		return m, err
	}
	if err := checkKernel(m.kernel); err != nil {
		return m, fmt.Errorf("cluster: plan %d: %w", m.id, err)
	}
	return m, nil
}

// checkKernel refuses a kernel description the worker cannot build:
// grid.New panics on a non-positive eps or resolution and on empty
// bounds, and a grid or tile grid past grid.MaxCells would size the
// worker's dense tables from a frame's say-so.
func checkKernel(k dpe.KernelDesc) error {
	switch k.Kind {
	case dpe.KernelRefPoint:
		b := k.Bounds
		for _, f := range []float64{b.MinX, b.MinY, b.MaxX, b.MaxY, k.GridEps, k.GridRes} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("ref-point kernel carries a non-finite grid parameter %v", f)
			}
		}
		if k.GridEps <= 0 || k.GridRes <= 0 || b.IsEmpty() {
			return fmt.Errorf("ref-point kernel grid eps %v, resolution %v, bounds %+v: need positive eps and resolution and non-empty bounds",
				k.GridEps, k.GridRes, b)
		}
		return grid.Check(b, k.GridEps, k.GridRes)
	case dpe.KernelTwoLayer:
		return grid.CheckCells(float64(k.TileNX) * float64(k.TileNY))
	}
	return nil
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

func readTaskHeader(r *codec.Reader) taskHeader {
	return taskHeader{plan: r.U64(), part: r.U32(), attempt: r.U32()}
}

// taskHeaderWire is the encoded size of a taskHeader.
const taskHeaderWire = 8 + 4 + 4

// taskWire is the body size of the task frame of rs and ss.
func taskWire(rs, ss *colpipe.Slab) int {
	return taskHeaderWire + rs.WireSize() + ss.WireSize()
}

// writeTask encodes one reduce partition in the pipeline's native
// columnar form: per side, the slab's wire encoding (group directory,
// raw x/y/id lanes, optional length-prefixed payload column — see
// colpipe's codec), streamed from the lanes into w and decoded by the
// worker straight into kernel-ready slabs — no tuple structs and no
// frame-sized buffer on either end.
func writeTask(w *bufio.Writer, h taskHeader, rs, ss *colpipe.Slab) error {
	w.Write(appendTaskHeader(w.AvailableBuffer(), h))
	if err := rs.WriteWire(w); err != nil {
		return err
	}
	return ss.WriteWire(w)
}

// splitTaskBytes attributes each producing map split's encoded rows of
// a task to the local or the remote side by isLocal. The group
// directory bytes belong to the partition, not a producer, and are
// left unattributed.
func splitTaskBytes(rs, ss *colpipe.Slab, isLocal func(src int) bool) (local, remote int64) {
	for _, side := range [2]*colpipe.Slab{rs, ss} {
		for src := range side.WorkerRows {
			if isLocal(src) {
				local += side.WorkerWire(src)
			} else {
				remote += side.WorkerWire(src)
			}
		}
	}
	return local, remote
}

// readTask decodes a task frame's body of n bytes from r into fresh
// slabs, consuming exactly the frame.
func readTask(r *bufio.Reader, n int) (t workerTask, err error) {
	var head [taskHeaderWire]byte
	if n < len(head) {
		return t, errors.New("cluster: short task frame")
	}
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return t, err
	}
	hr := codec.NewReader(head[:])
	t.h = readTaskHeader(&hr)
	left := n - len(head)
	t.rs, t.ss = &colpipe.Slab{}, &colpipe.Slab{}
	if err = t.rs.ReadWire(r, &left); err == nil {
		err = t.ss.ReadWire(r, &left)
	}
	if err != nil {
		return t, fmt.Errorf("cluster: task frame: %w", err)
	}
	if left != 0 {
		return t, fmt.Errorf("cluster: task frame carries %d trailing bytes", left)
	}
	return t, nil
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

// resultHeadWire is the encoded size of a result frame before its pairs.
const resultHeadWire = taskHeaderWire + 4*8 + 4

func (m *resultMsg) size() int { return resultHeadWire + len(m.pairs)*tuple.PairWireSize }

// write streams the result, its collected pairs in chunks, into w.
func (m *resultMsg) write(w *bufio.Writer) error {
	b := appendTaskHeader(w.AvailableBuffer(), m.taskHeader)
	b = binary.LittleEndian.AppendUint64(b, uint64(m.dur))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.results))
	b = binary.LittleEndian.AppendUint64(b, m.checksum)
	b = binary.LittleEndian.AppendUint64(b, uint64(m.cost))
	w.Write(binary.LittleEndian.AppendUint32(b, uint32(len(m.pairs))))
	return codec.WriteLane(w, m.pairs, tuple.PairWireSize, tuple.AppendPair)
}

// readResult decodes a result frame's body of n bytes from r, its pairs
// straight into an exactly sized slice, consuming exactly the frame.
func readResult(r *bufio.Reader, n int) (resultMsg, error) {
	var m resultMsg
	var head [resultHeadWire]byte
	if n < len(head) {
		return m, errors.New("cluster: short result frame")
	}
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return m, err
	}
	hr := codec.NewReader(head[:])
	m.taskHeader = readTaskHeader(&hr)
	m.dur = time.Duration(hr.I64())
	m.results = hr.I64()
	m.checksum = hr.U64()
	m.cost = hr.I64()
	left := n - len(head)
	if np := int(hr.U32()); np > 0 {
		if np > left/tuple.PairWireSize {
			return m, errors.New("cluster: result frame declares more pairs than it carries")
		}
		m.pairs = make([]tuple.Pair, np)
		if err := codec.ReadLane(r, &left, m.pairs, tuple.PairWireSize, decodePair); err != nil {
			return m, err
		}
	}
	if left != 0 {
		return m, fmt.Errorf("cluster: result frame carries %d trailing bytes", left)
	}
	return m, nil
}

// decodePair decodes one pair from a window ReadLane checked holds it.
func decodePair(b []byte) tuple.Pair {
	p, _ := tuple.DecodePair(b)
	return p
}

// taskErrMsg reports a failed task attempt.
type taskErrMsg struct {
	taskHeader
	msg string
}

func (m taskErrMsg) encode() []byte {
	return codec.AppendStr16(appendTaskHeader(nil, m.taskHeader), m.msg)
}

func decodeTaskErr(b []byte) (taskErrMsg, error) {
	r := codec.NewReader(b)
	m := taskErrMsg{taskHeader: readTaskHeader(&r)}
	m.msg = r.Str16()
	return m, short(&r, "task error")
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
	r := codec.NewReader(b)
	m := cancelMsg{plan: r.U64(), part: r.U32()}
	return m, short(&r, "cancel")
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
		b = codec.AppendStr16(b, s.Name)
		b = codec.AppendStr16(b, s.Worker)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(s.Attrs)))
		for _, a := range s.Attrs {
			b = codec.AppendStr16(b, a.Key)
			if a.IsStr {
				b = append(b, 1)
				b = codec.AppendStr16(b, a.Str)
			} else {
				b = append(b, 0)
				b = binary.LittleEndian.AppendUint64(b, uint64(a.Int))
			}
		}
	}
	return b
}

func decodeSpans(b []byte) (spansMsg, error) {
	r := codec.NewReader(b)
	m := spansMsg{plan: r.U64()}
	// Each span is at least 8+8+8+8 id/parent/start/done + 2+2 empty
	// names + 2 attr count bytes on the wire.
	n := r.Count(38)
	m.spans = make([]obs.Span, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		s := obs.Span{
			ID:     obs.SpanID(r.I64()),
			Parent: obs.SpanID(r.I64()),
			Start:  r.I64(),
			Done:   r.I64(),
			Name:   r.Str16(),
			Worker: r.Str16(),
		}
		// Attrs grow by append, each consuming bytes, so a lying u16
		// count runs the reader dry instead of allocating.
		na := int(r.U16())
		for j := 0; j < na && r.Err() == nil; j++ {
			a := obs.Attr{Key: r.Str16()}
			if r.U8() == 1 {
				a.IsStr = true
				a.Str = r.Str16()
			} else {
				a.Int = r.I64()
			}
			s.Attrs = append(s.Attrs, a)
		}
		m.spans = append(m.spans, s)
	}
	return m, short(&r, "spans")
}

func encodePlanDone(plan uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, plan)
}

func decodePlanDone(b []byte) (uint64, error) {
	r := codec.NewReader(b)
	id := r.U64()
	return id, short(&r, "plan done")
}
