// Package cluster is the real multi-process execution backend of the
// data-parallel engine: a coordinator and N worker processes connected
// over TCP with a length-prefixed binary protocol. Where the local
// engine simulates workers in-process and models shuffle bytes, the
// cluster engine ships one plan frame per worker (ε, join flags, kernel
// description, trace context) and the partition-bucketed tuples over
// actual sockets, so the replication decisions of the paper drive
// measured network bytes.
//
// The coordinator owns the prepared partitions (the product of the map +
// shuffle phases) and streams each reduce partition to its owning worker
// as one task. Liveness is tracked with heartbeats: a worker that dies
// or goes silent has its unfinished tasks re-queued on survivors, and
// tasks that run past a straggler threshold are speculatively duplicated
// on a second worker with first-result-wins deduplication — the fault
// model of the MapReduce/Spark lineage the paper's evaluation ran on.
//
// Wire format. Every frame is
//
//	length u32 (type + payload) | type u8 | payload
//
// in little-endian byte order, with task partitions encoded by
// internal/colpipe's slab codec and result pairs by internal/tuple's
// wire format. Task and result frames stream between their lanes and
// each connection's fixed-size buffers (conn, readFrame), so a
// partition is copied once on its way across and no frame is held
// whole; small control frames are encoded and read whole. The protocol
// is deliberately dumb: no compression, no pipelining windows —
// measured bytes should map one-to-one onto the replication and
// placement decisions under test.
package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// protoVersion is bumped on any incompatible frame change.
// v2 added the trace-context and span-shipping (msgSpans) frames that
// stitch worker-process spans into the coordinator's trace.
// v3 added the columnar task frame (msgTaskCols): a reduce partition
// shipped as kernel-ready slab columns instead of per-record tuples.
// v4 made it the only task frame: the per-record frame (type 4) is
// retired and each slab gains an optional length-prefixed payload
// column, so payload-carrying joins ship column-wise too.
// v5 folds the trace context into the plan frame, which the
// coordinator now sends each worker once per execution, and drops the
// plan's unread graph-of-agreements blob: the coordinator maps and
// replicates, so workers receive finished slabs. Type 9, the separate
// trace-context frame, is retired.
const protoVersion = 5

// helloMagic opens the worker → coordinator handshake.
const helloMagic = "SJWK"

// Frame types.
const (
	msgHello     byte = 1  // worker → coordinator: magic, version, name
	msgHeartbeat byte = 2  // worker → coordinator: liveness beacon
	msgPlan      byte = 3  // coordinator → worker: one execution's plan and trace context
	msgResult    byte = 5  // worker → coordinator: one task's join outcome
	msgTaskErr   byte = 6  // worker → coordinator: task execution failed
	msgCancel    byte = 7  // coordinator → worker: drop a task (speculation lost)
	msgPlanDone  byte = 8  // coordinator → worker: plan finished, free its state
	msgSpans     byte = 10 // worker → coordinator: finished spans of one task
	msgTaskCols  byte = 11 // coordinator → worker: one reduce partition as columnar slabs

	// Type 4 was the per-record task frame of protocols v1–v3 and type 9
	// the trace-context frame of v2–v4; both stay unassigned.
)

// Liveness timing, part of the protocol so both sides read one value:
// a worker beacons every heartbeatPeriod, and the coordinator declares
// a worker silent for heartbeatMisses periods dead and re-queues its
// tasks.
const (
	heartbeatPeriod = 500 * time.Millisecond
	heartbeatMisses = 5
)

// Speculation timing: the coordinator duplicates a task whose only
// attempt has run past max(stragglerMin, stragglerFactor × the median
// completed-task time); see speculateLoop.
const (
	stragglerMin    = 2 * time.Second
	stragglerFactor = 3
)

// maxFrame bounds a single frame; a task carries a whole reduce
// partition, so the cap is generous.
const maxFrame = 1 << 30

// frame length prefix + type byte.
const frameHeader = 4 + 1

// connBuffer is the size of each connection's read and write buffer.
// Task and result frames stream through it in chunks, so it bounds the
// memory a connection holds whatever the size of its frames.
const connBuffer = 64 << 10

// writeTimeout bounds the write of one frame.
const writeTimeout = 30 * time.Second

// conn is one end of a cluster connection, the coordinator's or a
// worker's: the socket, a lock that keeps frames whole and one
// fixed-size write buffer every frame passes through.
type conn struct {
	net.Conn
	mu sync.Mutex
	bw *bufio.Writer
}

func newConn(c net.Conn) *conn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &conn{Conn: c, bw: bufio.NewWriterSize(c, connBuffer)}
}

// send writes one control frame, its payload encoded whole.
func (c *conn) send(typ byte, payload []byte) error {
	return c.stream(typ, len(payload), func(w *bufio.Writer) error {
		_, err := w.Write(payload)
		return err
	})
}

// stream writes one frame and flushes it, under the lock and one write
// deadline. body encodes the frame's size bytes after the type byte
// straight into the connection's buffer.
func (c *conn) stream(typ byte, size int, body func(*bufio.Writer) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := writeFrame(c.bw, typ, size, body); err != nil {
		return err
	}
	return c.bw.Flush()
}

// writeFrame writes a frame's header, then its body, which must write
// exactly size bytes. A bufio.Writer's first error sticks, so a failed
// header write surfaces from body's writes or the caller's Flush.
func writeFrame(w *bufio.Writer, typ byte, size int, body func(*bufio.Writer) error) error {
	w.Write(binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(1+size)))
	w.WriteByte(typ)
	return body(w)
}

// readFrame reads one frame's header from r, enforcing the size cap,
// and returns its type, the length n of its body and the body itself —
// except for a frame of type streamed, whose n body bytes the caller
// decodes from r.
func readFrame(r *bufio.Reader, max int, streamed byte) (typ byte, n int, body []byte, err error) {
	head, err := r.Peek(frameHeader)
	if err != nil {
		if err == io.EOF && len(head) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	size := int(binary.LittleEndian.Uint32(head))
	if size < 1 || size > max {
		return 0, 0, nil, fmt.Errorf("cluster: frame of %d bytes outside (0, %d]", size, max)
	}
	typ, n = head[4], size-1
	r.Discard(frameHeader)
	if typ == streamed {
		return typ, n, nil, nil
	}
	body = make([]byte, n)
	_, err = io.ReadFull(r, body)
	return typ, n, body, err
}
