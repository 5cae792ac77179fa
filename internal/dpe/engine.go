package dpe

import (
	"context"
	"strconv"
	"time"

	"spatialjoin/internal/obs"
)

// LocalEngine is the default execution backend: the reduce phase runs on
// an in-process goroutine pool of simulated workers, with partitions
// owned round-robin. It is the zero-dependency stand-in for a cluster,
// and the reference an actual cluster engine must match result-for-result.
type LocalEngine struct{}

// ExecutePrepared implements Engine. Partitions are owned by workers
// round-robin; workers run concurrently, their partitions serially. When
// ctx is cancelled, every worker stops before its next rank group and
// the context error is returned.
func (LocalEngine) ExecutePrepared(ctx context.Context, pr *Prepared, opt ExecOptions) (*Result, error) {
	spec := pr.spec
	workers := pr.workers
	nparts := len(pr.partR)

	res := &Result{Metrics: pr.build}

	tr := opt.Tracer
	execSp := tr.Start(opt.TraceParent, obs.SpanExecute)
	execSp.SetInt("partitions", int64(nparts)).SetInt("workers", int64(workers))

	// ---- Reduce phase: per-partition merge of the two slabs' cell
	// groups + plane sweep join with refinement.
	start := time.Now()
	outs := make([]PartitionResult, nparts)
	busy := make([]time.Duration, workers)
	// In-flight workers are capped at the pool size: running more
	// simulated workers than cores would only time-slice them against
	// each other, polluting the per-worker busy clocks (Metrics.WorkerBusy).
	eachWorker(workers, spec.PoolSize, func(w int) {
		var wname string
		if tr != nil {
			wname = "local-" + strconv.Itoa(w)
		}
		t0 := time.Now()
		var err error
		for p := w; p < nparts && err == nil; p += workers {
			ts := tr.Start(execSp.SpanID(), obs.SpanTask)
			ts.SetWorker(wname).SetInt("partition", int64(p))
			outs[p], err = JoinSlabsTraced(ctx, &pr.partR[p], &pr.partS[p], opt.Eps, spec.Kernel, opt.Collect, spec.SelfFilter, ts)
		}
		busy[w] = time.Since(t0)
	})
	execSp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.JoinTime = time.Since(start)
	res.WorkerBusy = busy

	for p := range outs {
		res.Results += outs[p].Results
		res.Checksum += outs[p].Checksum
		res.TotalPartitionCost += outs[p].Cost
		if outs[p].Cost > res.MaxPartitionCost {
			res.MaxPartitionCost = outs[p].Cost
		}
		if opt.Collect {
			res.Pairs = append(res.Pairs, outs[p].Pairs...)
		}
	}
	return res, nil
}
