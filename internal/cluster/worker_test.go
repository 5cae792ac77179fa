package cluster

import (
	"bufio"
	"net"
	"testing"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/tuple"
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
			w.conn = conn
			sent := make(chan byte, 16) // room for every frame one task can send
			go func() {
				defer close(sent)
				br := bufio.NewReader(coord)
				for {
					typ, _, err := readFrame(br, defaultMaxFrame)
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
			w.plans[1].kernel = func(_ int, _, _ []tuple.Tuple, _ float64, _ sweep.Emit) {
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
