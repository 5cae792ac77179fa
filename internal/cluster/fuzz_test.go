package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"spatialjoin/internal/codec"
	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/tuple"
)

// fuzzMaxFrame keeps the fuzzer from asking readFrame for gigabyte
// bodies; the production cap is exercised by its own seed below.
const fuzzMaxFrame = 1 << 20

// FuzzFrame feeds arbitrary bytes through the wire protocol's framing
// and every payload decoder, task and result frames through the
// streaming decoders the read loops use. Decoders may reject input with
// errors but must never panic, over-allocate past the frame, or read
// out of bounds; any frame that decodes must re-encode to its bytes.
func FuzzFrame(f *testing.F) {
	// Truncated and degenerate frames.
	f.Add([]byte{})
	f.Add([]byte{0x01})                                          // partial length prefix
	f.Add([]byte{0x0a, 0x00, 0x00, 0x00, 0x01})                  // declares 10 bytes, carries 1
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})                        // zero-length frame (no type byte)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01})                  // length far past the cap
	f.Add(binary.LittleEndian.AppendUint32(nil, fuzzMaxFrame+1)) // just past the cap

	// Well-formed frames of every type, built with the real encoders.
	hello := append([]byte(helloMagic), protoVersion)
	f.Add(appendFrame(msgHello, codec.AppendStr16(hello, "worker-1")))
	badHello := append([]byte("NOPE"), protoVersion)
	f.Add(appendFrame(msgHello, codec.AppendStr16(badHello, "worker-1")))
	f.Add(appendFrame(msgHeartbeat, nil))
	refPlan := planMsg{
		id: 7, eps: 0.5, selfFilter: true, collect: true,
		kernel: dpe.KernelDesc{
			Kind:    dpe.KernelRefPoint,
			Bounds:  geom.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4},
			GridEps: 0.5, GridRes: 2,
		},
	}
	f.Add(appendFrame(msgPlan, refPlan.encode())) // untraced: zero trace fields
	tracedPlan := refPlan
	tracedPlan.traceID, tracedPlan.parent, tracedPlan.idBase = 99, 3, 1<<40
	traced := tracedPlan.encode()
	f.Add(appendFrame(msgPlan, traced))
	f.Add(appendFrame(msgPlan, traced[:len(traced)-12])) // cut inside the trace fields

	refPlan.kernel.GridEps = 0 // grid.New panics on it
	f.Add(appendFrame(msgPlan, refPlan.encode()))
	f.Add(appendFrame(msgPlan, planMsg{id: 8, eps: 0.5, kernel: dpe.KernelDesc{
		Kind: dpe.KernelTwoLayer, Bounds: geom.Rect{MaxX: 4, MaxY: 4}, TileNX: 4, TileNY: 4, Predicate: 1,
	}}.encode()))
	f.Add(resultFrame(resultMsg{
		taskHeader: taskHeader{plan: 7, part: 3, attempt: 1},
		results:    1, checksum: 42, cost: 9,
		pairs: []tuple.Pair{{RID: 1, SID: 2}},
	}))
	f.Add(appendFrame(msgTaskErr, taskErrMsg{
		taskHeader: taskHeader{plan: 7, part: 3}, msg: "boom",
	}.encode()))
	f.Add(appendFrame(msgCancel, cancelMsg{plan: 7, part: 3}.encode()))
	f.Add(appendFrame(msgPlanDone, encodePlanDone(7)))

	// Type 9, the trace-context frame of protocols v2–v4, which a v5
	// worker refuses as an unexpected type.
	f.Add(appendFrame(9, make([]byte, 33)))

	// Span frames.
	f.Add(appendFrame(msgSpans, spansMsg{plan: 7, spans: []obs.Span{
		{ID: 1<<40 | 1, Parent: 3, Name: obs.SpanTask, Worker: "w1",
			Start: 100, Done: 200,
			Attrs: []obs.Attr{{Key: "partition", Int: 3}, {Key: "kind", Str: "sweep", IsStr: true}}},
		{ID: 1<<40 | 1, Parent: 3, Name: obs.SpanTask, Worker: "w1", Start: 150, Done: 250}, // duplicate span id
	}}.encode()))
	lyingSpans := binary.LittleEndian.AppendUint64(nil, 7)
	lyingSpans = binary.LittleEndian.AppendUint32(lyingSpans, 1<<30) // a billion spans, no bytes
	f.Add(appendFrame(msgSpans, lyingSpans))

	// Task frames: point slabs (no payload column) and a payload-carrying
	// side.
	colsFrame := taskFrame(taskHeader{plan: 7, part: 3, attempt: 1},
		&colpipe.Slab{Ranks: []int32{2, 9}, Starts: []int32{0, 1, 3},
			Xs: []float64{1, 2, 3}, Ys: []float64{4, 5, 6}, IDs: []int64{7, 8, 9}},
		&colpipe.Slab{Ranks: []int32{9}, Starts: []int32{0, 1},
			Xs: []float64{2}, Ys: []float64{5}, IDs: []int64{10}})
	f.Add(colsFrame)
	f.Add(colsFrame[:len(colsFrame)-8]) // truncated mid-lane
	paySlab := &colpipe.Slab{Ranks: []int32{9}, Starts: []int32{0, 2},
		Xs: []float64{2, 3}, Ys: []float64{5, 6}, IDs: []int64{10, 11},
		Payloads:   [][]byte{[]byte("geometry"), nil},
		WorkerRows: []int32{2}, WorkerPayload: []int64{8}}
	payFrame := taskFrame(taskHeader{plan: 7, part: 4}, paySlab, paySlab)
	f.Add(payFrame)
	f.Add(payFrame[:len(payFrame)-3])                    // truncated inside the last payload length
	f.Add(payFrame[:len(payFrame)-paySlab.WireSize()+4]) // S side cut right after its group count
	// The R side's payload column starts after header, directory, lanes
	// and the flag byte; rewrite its first length prefix.
	lenAt := frameHeader + 16 + 4 + 4 + 8 + 2*colpipe.RowWire + 1
	oversized := append([]byte(nil), payFrame...)
	binary.LittleEndian.PutUint32(oversized[lenAt:], 1<<31) // payload longer than any frame
	f.Add(oversized)
	lyingLen := append([]byte(nil), payFrame...)
	binary.LittleEndian.PutUint32(lyingLen[lenAt:], 9) // one byte too many: swallows the next prefix
	f.Add(lyingLen)
	badFlag := append([]byte(nil), payFrame...)
	badFlag[lenAt-1] = 7 // unknown payload-column flag
	f.Add(badFlag)
	flagNoColumn := append([]byte(nil), colsFrame...)
	flagNoColumn[len(flagNoColumn)-1] = 1 // claims a payload column, carries none
	f.Add(flagNoColumn)

	// Frames whose payloads lie about their contents.
	lyingCols := appendTaskHeader(nil, taskHeader{plan: 1})
	lyingCols = binary.LittleEndian.AppendUint32(lyingCols, 1<<30) // a billion groups, no bytes
	f.Add(appendFrame(msgTaskCols, lyingCols))
	lyingResult := resultFrame(resultMsg{taskHeader: taskHeader{plan: 1}})
	binary.LittleEndian.PutUint32(lyingResult[len(lyingResult)-4:], 1<<30)
	f.Add(lyingResult)

	// Two frames back to back: framing must resynchronise.
	f.Add(append(appendFrame(msgHeartbeat, nil), appendFrame(msgCancel, cancelMsg{plan: 1}.encode())...))

	// Streaming decoder: a task frame whose length prefix promises more
	// bytes than follow; a slab whose row count fits the declared frame
	// but whose lanes are cut, across several Peek windows; a payload
	// length one byte past the frame's end; and a task frame followed by
	// a result frame, which must resynchronise after the streamed body.
	promising := append([]byte(nil), colsFrame...)
	binary.LittleEndian.PutUint32(promising, binary.LittleEndian.Uint32(promising)+64)
	f.Add(promising)
	big := taskFrame(taskHeader{plan: 7, part: 5}, benchSlab(40, 0), benchSlab(1, 40))
	f.Add(big[:frameHeader+16+4+4+8+8*25]) // cut inside the R slab's x lane
	pastEnd := append([]byte(nil), payFrame...)
	// The S side's first payload length; its 8 bytes and the last row's
	// length close the frame.
	binary.LittleEndian.PutUint32(pastEnd[len(pastEnd)-16:], 8+4+1)
	f.Add(pastEnd)
	f.Add(append(append([]byte(nil), colsFrame...), resultFrame(resultMsg{taskHeader: taskHeader{plan: 7, part: 3}, results: 2})...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The same reader and decoders as the worker's and the
		// coordinator's read loops, with a small buffer so lanes cross
		// Peek windows.
		src := bytes.NewReader(data)
		br := bufio.NewReaderSize(src, 64)
		for {
			at := len(data) - src.Len() - br.Buffered()
			// Each read loop streams its one large frame type: the
			// worker's task frames, the coordinator's result frames.
			streamed := msgTaskCols
			if head, _ := br.Peek(frameHeader); len(head) == frameHeader && head[4] == msgResult {
				streamed = msgResult
			}
			typ, n, payload, err := readFrame(br, fuzzMaxFrame, streamed)
			if err != nil {
				return // rejected cleanly; nothing more to parse
			}
			frame := data[at:min(len(data), at+frameHeader+n)]
			var again []byte
			switch typ {
			case msgTaskCols:
				task, err := readTask(br, n)
				if err != nil {
					return // the stream is mid-frame: the connection dies
				}
				again = taskFrame(task.h, task.rs, task.ss)
			case msgResult:
				m, err := readResult(br, n)
				if err != nil {
					return
				}
				again = resultFrame(m)
			default:
				switch typ {
				case msgHello:
					decodeHello(payload)
				case msgPlan:
					decodePlan(payload)
					discardWorker().handlePlan(payload)
				case msgTaskErr:
					decodeTaskErr(payload)
				case msgCancel:
					decodeCancel(payload)
				case msgPlanDone:
					decodePlanDone(payload)
				case msgSpans:
					decodeSpans(payload)
				}
				again = appendFrame(typ, payload)
			}
			// Any frame that decoded must re-encode to its exact bytes: a
			// streamed task or result frame through WriteWire and the
			// pair lane, a control frame through appendFrame.
			if !bytes.Equal(again, frame) {
				t.Fatalf("type %d frame changed across a decode and re-encode:\n%x\n%x", typ, frame, again)
			}
		}
	})
}
