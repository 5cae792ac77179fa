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
// wire format. The protocol is deliberately dumb:
// no compression, no pipelining windows — measured bytes should map
// one-to-one onto the replication and placement decisions under test.
package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
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

// maxFrame bounds a single frame; a task carries a whole reduce
// partition, so the cap is generous.
const maxFrame = 1 << 30

// frame length prefix + type byte.
const frameHeader = 4 + 1

// appendFrame wraps a payload into a frame ready for a single Write.
func appendFrame(typ byte, payload []byte) []byte {
	buf := make([]byte, 0, frameHeader+len(payload))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(1+len(payload)))
	buf = append(buf, typ)
	return append(buf, payload...)
}

// readFrame reads one frame from r, enforcing the size cap.
func readFrame(r *bufio.Reader, max int) (byte, []byte, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(head[:]))
	if n < 1 || n > max {
		return 0, nil, fmt.Errorf("cluster: frame of %d bytes outside (0, %d]", n, max)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}
