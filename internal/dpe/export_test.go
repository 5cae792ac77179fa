package dpe

import (
	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/colsweep"
)

// NestedLoopKernel is the differential second opinion among the lane
// kernels: it compares every row pair of the cell with the closed test
// dx²+dy² ≤ ε² and adds the matches one by one through Sink.Add.
func NestedLoopKernel(_ int, r, s *colpipe.Group, eps float64, out *colsweep.Sink) {
	eps2 := eps * eps
	for i, rid := range r.IDs {
		for j, sid := range s.IDs {
			dx, dy := r.Xs[i]-s.Xs[j], r.Ys[i]-s.Ys[j]
			if dx*dx+dy*dy <= eps2 {
				out.Add(rid, sid)
			}
		}
	}
}
