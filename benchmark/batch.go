package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"spatialjoin"
	"spatialjoin/internal/agreements"
	"spatialjoin/internal/cluster"
	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/core"
	"spatialjoin/internal/costmodel"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/dstore"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/lpt"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/replicate"
	"spatialjoin/internal/sample"
	"spatialjoin/internal/tuple"
)

// pointBench is the one-shot batch join of two point sets through the
// public spatialjoin.Join — skew-batch and sparse-batch on the local
// engine, cluster-loopback on a coordinator with two loopback workers.
type pointBench struct {
	cfg          config
	kindR, kindS int
	n            int
	eps          float64
	onCluster    bool
	withDstore   bool // also report the disk engine's rows in the layer pass

	r, s []tuple.Tuple
	opt  spatialjoin.Options
	want answer
	// local is the same join on the in-process engine, the reference a
	// cluster run must reproduce count for count.
	local *spatialjoin.Report

	coord       *cluster.Coordinator
	stopWorkers func()
	p50         float64 // untraced op median, the base of obs.trace_overhead_pct
}

func (b *pointBench) setup() error {
	rng := rand.New(rand.NewSource(b.cfg.seed))
	b.r, _ = pointSet(b.kindR, b.n, rng, 0)
	b.s, _ = pointSet(b.kindS, b.n, rng, 2_000_000_000)
	world := datagen.World()
	b.opt = spatialjoin.Options{
		Eps: b.eps, Algorithm: spatialjoin.AdaptiveLPiB, UseLPT: true,
		Workers: simWorkers, Partitions: simPartitions,
		Seed: b.cfg.seed, Bounds: &world,
	}
	if b.onCluster {
		if err := b.startCluster(); err != nil {
			return err
		}
		b.opt.Engine = b.coord.Engine()
	}
	for i := 0; i < 2; i++ { // warm-up
		if _, err := spatialjoin.Join(b.r, b.s, b.opt); err != nil {
			return err
		}
	}
	return nil
}

// startCluster brings up a coordinator on a loopback port and two
// in-process workers of one executor each: with the benchmark's own
// goroutine that is as many busy threads as the two-core box has.
func (b *pointBench) startCluster() error {
	coord, err := cluster.Listen("127.0.0.1:0", cluster.Config{})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A worker returns when the context is cancelled or the
			// coordinator goes away; both are the shutdown path here.
			_ = cluster.RunWorker(ctx, coord.Addr().String(), cluster.WorkerOptions{
				Name: fmt.Sprintf("w%d", i), Parallel: 1,
			})
		}(i)
	}
	b.coord = coord
	b.stopWorkers = func() { cancel(); wg.Wait() }
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	return coord.WaitForWorkers(wctx, 2)
}

func (b *pointBench) teardown() {
	if b.coord != nil {
		b.stopWorkers()
		b.coord.Close()
		b.coord, b.stopWorkers = nil, nil
	}
}

func (b *pointBench) oracle() error {
	b.want = oracleJoin(b.r, b.s, b.eps)
	if b.cfg.corrupt {
		b.want.n++
	}
	if b.onCluster {
		o := b.opt
		o.Engine = nil
		rep, err := spatialjoin.Join(b.r, b.s, o)
		if err != nil {
			return err
		}
		b.local = rep
	}
	return nil
}

// check compares one report with the oracle and, on the cluster, with
// the local engine's counts.
func (b *pointBench) check(rep *spatialjoin.Report) bool {
	if rep.Results != b.want.n || rep.Checksum != b.want.sum {
		return false
	}
	if b.local != nil && (rep.Replicated() != b.local.Replicated() || rep.ShuffledBytes != b.local.ShuffledBytes ||
		rep.Results != b.local.Results || rep.Checksum != b.local.Checksum) {
		return false
	}
	return true
}

func (b *pointBench) window(d time.Duration) (*tally, error) {
	t := closedLoop(d, func() bool {
		rep, err := spatialjoin.Join(b.r, b.s, b.opt)
		return err == nil && b.check(rep)
	})
	b.p50 = median(t.lat["op"])
	return t, nil
}

func (b *pointBench) layers(lp *layerPass) error {
	if err := b.pointLayers(lp); err != nil {
		return err
	}
	if b.withDstore {
		if err := b.dstoreLayers(lp); err != nil {
			return err
		}
	}
	if b.onCluster {
		return b.clusterLayers(lp)
	}
	return nil
}

// pointLayers calls the layers of the point pipeline one by one, from
// outside, on the workload's own inputs: the plan layers (sample, grid,
// agreements, lpt), replication, the columnar shuffle and sweep, then
// core's plan/execute split with the engine's own phase report, a join
// traced through Options.Trace, the PBSM baseline and the cost model.
func (b *pointBench) pointLayers(lp *layerPass) error {
	world := datagen.World()
	var errs []error // errors.Join drops the nil ones
	var traced []float64
	lp.reps(func() {
		lp.timed("rep", func() {
			var sr, ss []tuple.Tuple
			lp.timed("sample.bernoulli", func() {
				sr = sample.Bernoulli(b.r, sample.DefaultFraction, b.opt.Seed)
				ss = sample.Bernoulli(b.s, sample.DefaultFraction, b.opt.Seed+1)
			})
			lp.set("sample.rows", float64(len(sr)+len(ss)))

			var st *grid.Stats
			lp.timed("grid.stats", func() {
				st = grid.NewStats(grid.New(world, b.eps, 2))
				st.AddAll(tuple.R, sr)
				st.AddAll(tuple.S, ss)
			})
			g := st.Grid()
			lp.set("grid.cells", float64(g.NumCells()))
			lp.set("grid.points_per_cell", float64(len(b.r)+len(b.s))/float64(g.NumCells()))

			var gr *agreements.Graph
			lp.timed("agreements.build", func() {
				gr = agreements.BuildOrdered(st, agreements.LPiB, agreements.OrderPaper)
			})
			lp.set("agreements.encoded_bytes", float64(gr.EncodedSize()))

			var costs []int64
			var place []int
			lp.timed("lpt.assign", func() {
				costs = gr.EstimatedCosts(st)
				place = lpt.Assign(costs, simPartitions)
			})
			var total int64
			for _, c := range costs {
				total += c
			}
			if total > 0 {
				lp.set("lpt.imbalance", float64(lpt.Makespan(costs, place, simPartitions))*simPartitions/float64(total))
			}

			var copies int
			dur := lp.timed("replicate.assign", func() {
				var cells []int
				for _, in := range []struct {
					ts  []tuple.Tuple
					set tuple.Set
				}{{b.r, tuple.R}, {b.s, tuple.S}} {
					for i := range in.ts {
						cells = replicate.Adaptive(gr, in.ts[i].Pt, in.set, cells[:0])
						copies += len(cells) - 1
					}
				}
			})
			lp.set("replicate.copies", float64(copies))
			lp.set("replicate.ns_per_point", float64(dur.Nanoseconds())/float64(len(b.r)+len(b.s)))

			errs = append(errs, b.colpipeLayers(lp, gr, place))
			b.colsweepLayers(lp, g)

			pred := costmodel.Adaptive(gr, st, sample.DefaultFraction, 24)
			errs = append(errs, b.coreLayers(lp, pred))

			lp.timed("obs.traced_join", func() {
				tr := obs.New()
				o := b.opt
				o.Trace = tr
				t0 := time.Now()
				_, err := spatialjoin.Join(b.r, b.s, o)
				traced = append(traced, float64(time.Since(t0))/float64(time.Millisecond))
				errs = append(errs, err)
				lp.set("obs.spans_per_join", float64(lp.importObs(tr)))
				lp.set("agreements.marked_edges", float64(attrInt(tr, obs.SpanPartition, "marked_edges")))
				lp.set("agreements.locked_edges", float64(attrInt(tr, obs.SpanPartition, "locked_edges")))
			})

			lp.timed("pbsm.join", func() {
				res, err := pbsm.Join(b.r, b.s, pbsm.Config{
					Eps: b.eps, Variant: pbsm.UniR, Workers: simWorkers, Partitions: simPartitions,
					Bounds: &world, Engine: b.opt.Engine,
				})
				if err == nil && (res.Results != b.want.n || res.Checksum != b.want.sum) {
					err = fmt.Errorf("pbsm UNI(R) found %d pairs, the oracle %d", res.Results, b.want.n)
				}
				errs = append(errs, err)
				if err == nil {
					lp.set("pbsm.replicated_objects", float64(res.Replicated()))
				}
			})
		})
	})
	if b.p50 > 0 {
		lp.set("obs.trace_overhead_pct", (median(traced)-b.p50)/b.p50*100)
	}
	if pr := lp.vals["pbsm.replicated_objects"]; pr > 0 {
		lp.set("core.replication_vs_pbsm", lp.vals["core.replicated_objects"]/pr)
	}

	// The supplementary-join and dedup phases exist only in the ablation
	// variant; one repetition of it supplies their spans.
	lp.timed("obs.simple_dedup_join", func() {
		tr := obs.New()
		o := b.opt
		o.Algorithm = spatialjoin.AdaptiveSimpleDedup
		o.Trace = tr
		rep, err := spatialjoin.Join(b.r, b.s, o)
		if err == nil && rep.Results != b.want.n {
			err = fmt.Errorf("LPiB+dedup found %d pairs, the oracle %d", rep.Results, b.want.n)
		}
		errs = append(errs, err)
		lp.importObs(tr, obs.SpanSupplementary, obs.SpanDedup)
	})
	return errors.Join(errs...)
}

// colpipeLayers builds the rows the engine's columnar map phase would
// emit for these inputs — every replica as a lane row keyed by Hilbert
// rank, one segment per (map split, partition) — then times the
// counting-sort shuffle and the slab join on them.
func (b *pointBench) colpipeLayers(lp *layerPass, gr *agreements.Graph, place []int) error {
	g := gr.Grid
	rank := colpipe.HilbertRanks(g.NX, g.NY)
	fill := func(ts []tuple.Tuple, set tuple.Set) [][]colpipe.Seg {
		segs := make([][]colpipe.Seg, simWorkers)
		chunk := (len(ts) + simWorkers - 1) / simWorkers
		var cells []int
		for w := range segs {
			segs[w] = make([]colpipe.Seg, simPartitions)
			for i := min(w*chunk, len(ts)); i < min((w+1)*chunk, len(ts)); i++ {
				t := &ts[i]
				cells = replicate.Adaptive(gr, t.Pt, set, cells[:0])
				for _, c := range cells {
					segs[w][place[c]].Append(rank[c], t.Pt.X, t.Pt.Y, t.ID, t.KeyedSize())
				}
			}
		}
		return segs
	}
	var segR, segS [][]colpipe.Seg
	lp.timed("colpipe.fill", func() {
		segR, segS = fill(b.r, tuple.R), fill(b.s, tuple.S)
	})

	slabR := make([]colpipe.Slab, simPartitions)
	slabS := make([]colpipe.Slab, simPartitions)
	lp.timed("colpipe.build", func() {
		builder := colpipe.NewBuilder(g.NumCells())
		scratch := make([]colpipe.Seg, simWorkers)
		for p := 0; p < simPartitions; p++ {
			for w := range scratch {
				scratch[w] = segR[w][p]
			}
			builder.BuildInto(&slabR[p], scratch)
			for w := range scratch {
				scratch[w] = segS[w][p]
			}
			builder.BuildInto(&slabS[p], scratch)
		}
	})
	rows, groups := 0, 0
	for p := range slabR {
		rows += slabR[p].Rows() + slabS[p].Rows()
		groups += slabR[p].NumGroups() + slabS[p].NumGroups()
	}
	lp.set("colpipe.rows", float64(rows))
	lp.set("colpipe.groups", float64(groups))

	var got answer
	lp.timed("colpipe.join_slabs", func() {
		bufs := colsweep.Get()
		defer colsweep.Put(bufs)
		bat := bufs.Batch(func(ps []tuple.Pair) {
			for _, p := range ps {
				got.add(p.RID, p.SID)
			}
		}, false)
		for p := range slabR {
			colpipe.JoinSlabs(&slabR[p], &slabS[p], b.eps, bat)
		}
		bat.Flush()
	})
	if got != b.want {
		return fmt.Errorf("colpipe.JoinSlabs found %d pairs, the oracle %d", got.n, b.want.n)
	}
	return nil
}

// colsweepLayers times the cell kernel alone on the workload's 64
// heaviest cells (native points only).
func (b *pointBench) colsweepLayers(lp *layerPass, g *grid.Grid) {
	bucket := func(ts []tuple.Tuple) [][]tuple.Tuple {
		out := make([][]tuple.Tuple, g.NumCells())
		for _, t := range ts {
			c := g.CellID(g.Locate(t.Pt))
			out[c] = append(out[c], t)
		}
		return out
	}
	br, bs := bucket(b.r), bucket(b.s)
	cells := make([]int, g.NumCells())
	for i := range cells {
		cells[i] = i
	}
	slices.SortFunc(cells, func(x, y int) int {
		return len(br[y])*len(bs[y]) - len(br[x])*len(bs[x])
	})
	cells = cells[:min(64, len(cells))]

	var pairs int64
	bufs := colsweep.Get()
	defer colsweep.Put(bufs)
	bat := bufs.Batch(func(ps []tuple.Pair) { pairs += int64(len(ps)) }, false)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := lp.timed("colsweep.join_cell", func() {
		for _, c := range cells {
			colsweep.JoinCell(bufs, br[c], bs[c], b.eps, bat)
		}
		bat.Flush()
	})
	runtime.ReadMemStats(&m1)
	lp.set("colsweep.allocs_per_op", float64(m1.Mallocs-m0.Mallocs))
	if d > 0 {
		lp.set("colsweep.pairs_per_s", float64(pairs)/d.Seconds())
	}
}

// coreLayers runs core's plan/execute split with the facade's settings
// and reads the engine's own phase report off the result.
func (b *pointBench) coreLayers(lp *layerPass, pred costmodel.Prediction) error {
	var plan *core.Plan
	var err error
	prep := lp.timed("core.build_plan", func() {
		plan, err = core.BuildPlan(b.r, b.s, core.Config{
			Eps: b.eps, Policy: agreements.LPiB, UseLPT: true,
			Workers: simWorkers, Partitions: simPartitions,
			Seed: b.opt.Seed, Bounds: b.opt.Bounds, Engine: b.opt.Engine,
		})
	})
	if err != nil {
		return err
	}
	var res *core.Result
	lp.timed("core.execute", func() { res, err = plan.Execute(core.Exec{}) })
	if err != nil {
		return err
	}
	m := res.Metrics
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	lp.set("core.pairs", float64(m.Results))
	lp.set("core.replicated_objects", float64(m.Replicated()))
	lp.set("core.shuffle_bytes", float64(m.ShuffledBytes))
	lp.sample("dpe.prepare_ms", ms(prep-m.SampleTime-m.BuildTime))
	lp.sample("dpe.map_ms", ms(m.MapTime))
	lp.sample("dpe.shuffle_ms", ms(m.ShuffleTime))
	lp.sample("dpe.join_ms", ms(m.JoinTime))
	lp.sample("dpe.map_busy_max_ms", ms(slices.Max(m.MapBusy)))
	if len(m.WorkerBusy) > 0 { // a remote engine has no per-worker clocks
		busiest, sum := slices.Max(m.WorkerBusy), time.Duration(0)
		for _, d := range m.WorkerBusy {
			sum += d
		}
		lp.sample("dpe.worker_busy_max_ms", ms(busiest))
		if sum > 0 {
			lp.sample("dpe.worker_busy_skew", float64(busiest)*float64(len(m.WorkerBusy))/float64(sum))
		}
	}
	if m.TotalPartitionCost > 0 {
		lp.set("dpe.partition_cost_skew", float64(m.MaxPartitionCost)*simPartitions/float64(m.TotalPartitionCost))
	}
	lp.set("dpe.remote_bytes", float64(m.RemoteBytes))
	relErr := func(pred, seen float64) float64 {
		if seen == 0 {
			return 0
		}
		return (pred - seen) / seen
	}
	lp.set("costmodel.replicated_rel_err", relErr(pred.Replicated, float64(m.Replicated())))
	lp.set("costmodel.shuffle_rel_err", relErr(pred.ShuffledBytes, float64(m.ShuffledBytes)))
	if m.Results != b.want.n || m.Checksum != b.want.sum {
		return fmt.Errorf("core found %d pairs, the oracle %d", m.Results, b.want.n)
	}
	return nil
}

// dstoreLayers writes both inputs as grid-partitioned column files and
// joins them from disk. The files live in the checkout and are removed.
func (b *pointBench) dstoreLayers(lp *layerPass) error {
	if err := os.MkdirAll(b.cfg.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.cfg.outDir, "dstore-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	world := datagen.World()
	rPath, sPath := filepath.Join(dir, "r.col"), filepath.Join(dir, "s.col")
	var errs []error
	lp.reps(func() {
		lp.timed("dstore.write_partitioned", func() {
			errs = append(errs,
				dstore.WritePartitioned(rPath, b.r, b.eps, 0, world),
				dstore.WritePartitioned(sPath, b.s, b.eps, 0, world))
		})
		var rr, sr *dstore.ColReader
		lp.timed("dstore.open", func() {
			var e1, e2 error
			rr, e1 = dstore.OpenColFile(rPath)
			sr, e2 = dstore.OpenColFile(sPath)
			errs = append(errs, e1, e2)
		})
		if rr == nil || sr == nil {
			return
		}
		defer rr.Close()
		defer sr.Close()
		lp.timed("dstore.join_files", func() {
			pairs, err := dstore.JoinFiles(rr, sr, b.eps, nil)
			if err == nil && pairs != b.want.n {
				err = fmt.Errorf("dstore.JoinFiles found %d pairs, the oracle %d", pairs, b.want.n)
			}
			errs = append(errs, err)
		})
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	var size int64
	for _, p := range []string{rPath, sPath} {
		fi, err := os.Stat(p)
		if err != nil {
			return err
		}
		size += fi.Size()
	}
	lp.set("dstore.bytes_per_point", float64(size)/float64(len(b.r)+len(b.s)))
	if local := lp.spanMs("core.execute"); local > 0 {
		lp.set("dstore.disk_vs_local_ratio", lp.spanMs("dstore.join_files")/local)
	}
	return nil
}

// clusterLayers compares the cluster engine with the local engine on
// the same join and reads the measured wire counters off the report.
func (b *pointBench) clusterLayers(lp *layerPass) error {
	var errs []error
	var onWire, remote []float64
	lp.reps(func() {
		var rep *spatialjoin.Report
		d := lp.timed("cluster.join", func() {
			var err error
			rep, err = spatialjoin.Join(b.r, b.s, b.opt)
			errs = append(errs, err)
		})
		lp.timed("cluster.local_execute", func() {
			o := b.opt
			o.Engine = nil
			_, err := spatialjoin.Join(b.r, b.s, o)
			errs = append(errs, err)
		})
		if rep == nil {
			return
		}
		c := rep.Cluster
		lp.set("cluster.task_bytes", float64(c.TaskBytesLocal+c.TaskBytesRemote))
		lp.set("cluster.broadcast_bytes", float64(c.BroadcastBytes))
		lp.set("cluster.result_bytes", float64(c.ResultBytes))
		lp.set("cluster.tasks", float64(c.Tasks))
		lp.set("cluster.retries", float64(c.Retries))
		lp.set("cluster.speculative_launched", float64(c.SpeculativeLaunched))
		onWire = append(onWire, float64(c.TaskBytesLocal+c.TaskBytesRemote+c.BroadcastBytes+c.ResultBytes))
		remote = append(remote, d.Seconds())
	})
	if len(onWire) > 0 {
		lp.set("cluster.wire_mb_per_s", median(onWire)/(1<<20)/median(remote))
	}
	lp.set("cluster.dispatch_overhead_ms", lp.spanMs("cluster.join")-lp.spanMs("cluster.local_execute"))
	return errors.Join(errs...)
}
