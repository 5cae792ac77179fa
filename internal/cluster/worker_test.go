package cluster

import (
	"bufio"
	"context"
	"net"
	"strings"
	"testing"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/dpe"
)

// TestWorkerStopsCancelledTask runs a task whose kernel blocks in its
// first slab group, ends the task the way the coordinator does — a
// msgCancel for its partition, or a msgPlanDone for its plan — and then
// lets the kernel return: the worker must join no further group and
// send no msgResult. The control case ends nothing and must see all
// three groups joined and the result sent.
func TestWorkerStopsCancelledTask(t *testing.T) {
	for _, stop := range []struct {
		name string
		end  func(w *workerState) // nil: the task runs to completion
	}{
		{"control", nil},
		{"cancel", func(w *workerState) { w.cancelTask(1, 2) }},
		{"plan-done", func(w *workerState) { w.planDone(1) }},
	} {
		t.Run(stop.name, func(t *testing.T) {
			coord, conn := net.Pipe()
			w := discardWorker()
			w.conn = newConn(conn)
			sent := make(chan byte, 16) // room for every frame one task can send
			go func() {
				defer close(sent)
				br := bufio.NewReader(coord)
				for {
					typ, _, _, err := readFrame(br, maxFrame, 0)
					if err != nil {
						return
					}
					sent <- typ
				}
			}()

			if err := w.handlePlan(planMsg{id: 1, eps: 1, kernel: dpe.KernelDesc{Kind: dpe.KernelSweep}}.encode()); err != nil {
				t.Fatal(err)
			}
			entered, release := make(chan struct{}), make(chan struct{})
			groups := 0 // the kernel runs on the task's goroutine only
			w.plans[1].kernel = func(_ int, _, _ *colpipe.Group, _ float64, _ *colsweep.Sink) {
				groups++
				if groups == 1 {
					close(entered)
					<-release
				}
			}
			// Three matched groups, one row per side each.
			slab := func(id int64) *colpipe.Slab {
				return &colpipe.Slab{
					Ranks: []int32{0, 1, 2}, Starts: []int32{0, 1, 2, 3},
					Xs: []float64{0, 5, 10}, Ys: []float64{0, 5, 10}, IDs: []int64{id, id + 1, id + 2},
				}
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				w.runTask(workerTask{h: taskHeader{plan: 1, part: 2}, rs: slab(0), ss: slab(100)})
			}()

			<-entered
			if stop.end != nil {
				stop.end(w)
			}
			close(release)
			<-done
			conn.Close()
			var results, other int
			for typ := range sent {
				if typ == msgResult {
					results++
				} else {
					other++
				}
			}
			wantGroups, wantResults := 1, 0
			if stop.end == nil {
				wantGroups, wantResults = 3, 1
			}
			if groups != wantGroups || results != wantResults || other != 0 {
				t.Errorf("kernel joined %d groups, worker sent %d results and %d other frames; want %d groups, %d results, 0 other",
					groups, results, other, wantGroups, wantResults)
			}
		})
	}
}

// TestWorkerRefusesRetiredFrame sends a worker the type-9 trace-context
// frame of protocols v2–v4 right after its hello: a v5 worker carries
// the trace context in the plan frame and must refuse the frame as an
// unexpected type rather than skip it.
func TestWorkerRefusesRetiredFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() { done <- RunWorker(context.Background(), ln.Addr().String(), WorkerOptions{Name: "w"}) }()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if typ, _, _, err := readFrame(bufio.NewReader(conn), 1<<16, 0); err != nil || typ != msgHello {
		t.Fatalf("first frame: type %d, err %v, want a hello", typ, err)
	}
	if _, err := conn.Write(appendFrame(9, make([]byte, 33))); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "unexpected frame type 9") {
		t.Fatalf("RunWorker = %v, want an unexpected-frame error", err)
	}
}
