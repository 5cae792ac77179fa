package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/tuple"
)

// appendFrame encodes a control frame whole: the bytes conn.send puts
// on the wire.
func appendFrame(typ byte, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(1+len(payload)))
	return append(append(b, typ), payload...)
}

// frameOf returns the bytes conn.stream puts on the wire for one frame.
// The small buffer makes every lane cross many flushes.
func frameOf(typ byte, size int, body func(*bufio.Writer) error) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriterSize(&buf, 64)
	if err := writeFrame(w, typ, size, body); err != nil {
		panic(err)
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// taskFrame is the task frame the coordinator streams for rs and ss.
func taskFrame(h taskHeader, rs, ss *colpipe.Slab) []byte {
	return frameOf(msgTaskCols, taskWire(rs, ss), func(w *bufio.Writer) error {
		return writeTask(w, h, rs, ss)
	})
}

// resultFrame is the result frame a worker streams for m.
func resultFrame(m resultMsg) []byte {
	return frameOf(msgResult, m.size(), m.write)
}

// readTaskFrame decodes one task frame the way the worker's read loop
// does, through a reader whose small buffer makes every lane cross many
// Peek windows.
func readTaskFrame(frame []byte) (workerTask, error) {
	br := bufio.NewReaderSize(bytes.NewReader(frame), 16)
	_, n, _, err := readFrame(br, maxFrame, msgTaskCols)
	if err != nil {
		return workerTask{}, err
	}
	return readTask(br, n)
}

// refResult encodes a result payload by the v5 layout: task header,
// duration, results, checksum, cost, pair count, pairs.
func refResult(m resultMsg) []byte {
	b := binary.LittleEndian.AppendUint64(nil, m.plan)
	b = binary.LittleEndian.AppendUint32(b, m.part)
	b = binary.LittleEndian.AppendUint32(b, m.attempt)
	for _, v := range []uint64{uint64(m.dur), uint64(m.results), m.checksum, uint64(m.cost)} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.pairs)))
	for _, p := range m.pairs {
		b = binary.LittleEndian.AppendUint64(b, uint64(p.RID))
		b = binary.LittleEndian.AppendUint64(b, uint64(p.SID))
	}
	return b
}

// benchSlab returns a point slab of n rows in groups of 500.
func benchSlab(n int, base int64) *colpipe.Slab {
	s := &colpipe.Slab{Xs: make([]float64, n), Ys: make([]float64, n), IDs: make([]int64, n), Starts: []int32{0}}
	for i := range n {
		s.Xs[i], s.Ys[i], s.IDs[i] = float64(i%500), float64(i), base+int64(i)
		if (i+1)%500 == 0 || i == n-1 {
			s.Ranks = append(s.Ranks, int32(len(s.Ranks)))
			s.Starts = append(s.Starts, int32(i+1))
		}
	}
	return s
}

// TestTaskFrameAllocation guards what streaming task frames is for: a
// task frame of two 50K-row slabs written through a conn into a pipe
// and decoded on the other end allocates the decoded lanes (24 B per
// row) and their group directories, plus a fixed slack for the two
// connection buffers — not a copy of the frame on either end. Staging
// the frame whole costs about four times the lanes.
func TestTaskFrameAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build allocates on its own")
	}
	const rows, slack = 50_000, 256 << 10
	rs, ss := benchSlab(rows, 0), benchSlab(rows, rows)
	h := taskHeader{plan: 1, part: 2, attempt: 3}
	lanes := uint64(rs.WireSize() + ss.WireSize())

	roundTrip := func() workerTask {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		sent := make(chan error, 1)
		go func() {
			sent <- newConn(a).stream(msgTaskCols, taskWire(rs, ss), func(w *bufio.Writer) error {
				return writeTask(w, h, rs, ss)
			})
		}()
		br := bufio.NewReaderSize(b, connBuffer)
		_, n, _, err := readFrame(br, maxFrame, msgTaskCols)
		if err != nil {
			t.Fatal(err)
		}
		task, err := readTask(br, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		return task
	}
	roundTrip() // warm
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	task := roundTrip()
	runtime.ReadMemStats(&m1)

	if task.h != h || task.rs.Rows() != rows || task.ss.Rows() != rows || task.ss.IDs[rows-1] != 2*rows-1 {
		t.Fatalf("task did not survive the pipe: header %+v, %d and %d rows", task.h, task.rs.Rows(), task.ss.Rows())
	}
	got := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("task frame of %d lane bytes allocated %d bytes (%.2f× the lanes)", lanes, got, float64(got)/float64(lanes))
	if got > lanes+slack {
		t.Fatalf("task frame round trip allocated %d bytes, want ≤ %d (lanes %d + slack %d): a frame is staged in memory", got, lanes+slack, lanes, slack)
	}
}

// TestResultFrameRoundTripMany streams a result whose pairs span many
// buffer windows and checks it decodes whole and in order.
func TestResultFrameRoundTripMany(t *testing.T) {
	in := resultMsg{taskHeader: taskHeader{plan: 3, part: 7, attempt: 1}, results: 1000, checksum: 5}
	for i := range 1000 {
		in.pairs = append(in.pairs, tuple.Pair{RID: int64(i), SID: int64(-i)})
	}
	frame := resultFrame(in)
	if !bytes.Equal(frame, appendFrame(msgResult, refResult(in))) {
		t.Fatal("streamed result frame differs from the v5 layout")
	}
	br := bufio.NewReaderSize(bytes.NewReader(frame), 16)
	_, n, _, err := readFrame(br, maxFrame, msgResult)
	if err != nil {
		t.Fatal(err)
	}
	out, err := readResult(br, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.pairs) != len(in.pairs) || out.pairs[999] != in.pairs[999] || out.pairs[500] != in.pairs[500] {
		t.Fatalf("pairs changed across the wire: %d of %d", len(out.pairs), len(in.pairs))
	}
}
