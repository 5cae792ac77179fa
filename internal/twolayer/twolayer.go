package twolayer

import (
	"context"
	"fmt"
	"sync/atomic"

	"spatialjoin/internal/core"
	"spatialjoin/internal/costmodel"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/sample"
	"spatialjoin/internal/tuple"
)

// maxSample caps the MBRs per side fed to the costmodel's resolution
// selection.
const maxSample = 1024

// Config describes one non-point join.
type Config struct {
	R, S []extgeom.Object
	Pred extgeom.Predicate
	// Eps is the WithinDistance threshold; ignored (and allowed zero)
	// for Intersects and Contains.
	Eps float64

	// Tiles forces a Tiles×Tiles grid; zero selects the resolution via
	// the cost model from sampled MBRs.
	Tiles int

	Workers    int
	Partitions int
	PoolSize   int
	Collect    bool

	// Bounds overrides the data bounds (otherwise the union of both
	// inputs' MBRs). MBRs outside are clamped, consistently between
	// assignment and the kernel.
	Bounds *geom.Rect

	// Engine executes the reduce phase. Nil runs it in process, with the
	// kernel reading the inputs in place; any engine — a cluster's, which
	// ships the tiles to worker processes, or dpe.LocalEngine — gets the
	// geometry wire-encoded in the payload lane.
	Engine dpe.Engine

	Tracer      *obs.Tracer
	TraceParent obs.SpanID
}

// Plan is a prepared two-layer join: replicated, tile-bucketed inputs
// plus the kernel, reusable across Executes.
type Plan struct {
	Grid       TileGrid
	Prediction costmodel.TwoLayerPrediction

	kernel *Kernel
	prep   *dpe.Prepared
	cfg    Config
	// classBytes accumulates replica payload bytes per class during the
	// map phase (atomics: map splits run concurrently).
	classBytes [numClasses]atomic.Int64
}

// Kernel exposes the plan's kernel (its Stats in particular).
func (p *Plan) Kernel() *Kernel { return p.kernel }

// ClassBytes returns the replica payload bytes the map phase produced
// per class, keyed by class name — class A is the native copies, B/C/D
// the extent-replication overhead. A replica counts its object's wire
// encoding whether or not the plan ships it.
func (p *Plan) ClassBytes() map[string]int64 {
	out := make(map[string]int64, int(numClasses))
	for c := ClassA; c < numClasses; c++ {
		out[c.String()] = p.classBytes[c].Load()
	}
	return out
}

// validMBRs validates every object and returns its MBR, by input row.
func validMBRs(objs []extgeom.Object) ([]geom.Rect, error) {
	mbrs := make([]geom.Rect, len(objs))
	for i := range objs {
		o := &objs[i]
		if err := o.Validate(); err != nil {
			return nil, fmt.Errorf("twolayer: object %d: %w", o.ID, err)
		}
		mbrs[i] = o.Bounds()
	}
	return mbrs, nil
}

// beginCorner is a tuple's point: its MBR's (MinX, MinY). The shuffle
// x-sorts every group by it, so the kernel's class buckets arrive in the
// sweep's order.
func beginCorner(mbr geom.Rect) geom.Point { return geom.Point{X: mbr.MinX, Y: mbr.MinY} }

// rowTuples are the in-process plan's join tuples: the input row as the
// id and the begin corner as the point, no payload — the kernel reads
// each row's object and MBR in place.
func rowTuples(mbrs []geom.Rect) []tuple.Tuple {
	out := make([]tuple.Tuple, len(mbrs))
	for i, m := range mbrs {
		out[i] = tuple.Tuple{ID: int64(i), Pt: beginCorner(m)}
	}
	return out
}

// encode builds the engine plan's join tuples, which leave the process:
// the object id, the begin corner, and the geometry wire encoding as
// the payload. The payloads are slices of one exactly-sized arena, each
// capped to its own bytes.
func encode(objs []extgeom.Object, mbrs []geom.Rect) []tuple.Tuple {
	size := 0
	for i := range objs {
		size += extgeom.ObjectWireSize(&objs[i])
	}
	out := make([]tuple.Tuple, len(objs))
	arena := make([]byte, 0, size)
	for i := range objs {
		o := &objs[i]
		start := len(arena)
		arena = extgeom.AppendObject(arena, o)
		out[i] = tuple.Tuple{ID: o.ID, Pt: beginCorner(mbrs[i]), Payload: arena[start:len(arena):len(arena)]}
	}
	return out
}

// Prepare validates both inputs and computes their MBRs once, samples,
// picks the grid, and runs the replication map + shuffle through dpe.
// Without an engine the kernel reads the objects in place; an engine
// plan ships them wire-encoded.
func Prepare(cfg Config) (*Plan, error) {
	if cfg.Pred > extgeom.WithinDistance {
		return nil, fmt.Errorf("twolayer: unknown predicate %d", cfg.Pred)
	}
	if cfg.Pred == extgeom.WithinDistance && cfg.Eps <= 0 {
		return nil, fmt.Errorf("twolayer: WithinDistance needs a positive eps, got %v", cfg.Eps)
	}
	widen := 0.0
	if cfg.Pred == extgeom.WithinDistance {
		widen = cfg.Eps
	}

	mbrsR, err := validMBRs(cfg.R)
	if err != nil {
		return nil, err
	}
	mbrsS, err := validMBRs(cfg.S)
	if err != nil {
		return nil, err
	}

	// ---- Partitioning decision: bounds, sampled MBRs, resolution.
	partSp := cfg.Tracer.Start(cfg.TraceParent, obs.SpanPartition)
	bounds := dataBounds(cfg.Bounds, mbrsR, mbrsS)
	workers, partitions := core.Parallelism(cfg.Workers, cfg.Partitions)
	var pred costmodel.TwoLayerPrediction
	if cfg.Tiles > 0 {
		pred = costmodel.TwoLayerPrediction{NX: cfg.Tiles, NY: cfg.Tiles}
	} else {
		sampleR := sampleMBRs(cfg.R, mbrsR, widen, 0)
		sampleS := sampleMBRs(cfg.S, mbrsS, 0, 1)
		pred = costmodel.TwoLayerResolution(bounds, sampleR, sampleS, len(cfg.R), len(cfg.S), workers)
	}
	// Forced or picked, the tile count sizes dpe's dense per-tile tables.
	if err := grid.CheckCells(float64(pred.NX) * float64(pred.NY)); err != nil {
		partSp.End()
		return nil, fmt.Errorf("twolayer: %d × %d tiles: %w", pred.NX, pred.NY, err)
	}
	tiles := NewTileGrid(bounds, pred.NX, pred.NY)
	partSp.SetInt("tiles_x", int64(tiles.NX)).SetInt("tiles_y", int64(tiles.NY))
	partSp.SetInt("predicted_candidates", int64(pred.CandidatePairs))
	partSp.SetInt("predicted_replicas", int64(pred.Replicated))
	partSp.End()

	p := &Plan{Grid: tiles, Prediction: pred, cfg: cfg}
	p.kernel = &Kernel{Grid: tiles, Pred: cfg.Pred}
	var rs, ss []tuple.Tuple
	if cfg.Engine == nil {
		rs, ss = rowTuples(mbrsR), rowTuples(mbrsS)
		p.kernel.in = inputs{r: cfg.R, s: cfg.S, mbrR: mbrsR, mbrS: mbrsS}
	} else {
		rs, ss = encode(cfg.R, mbrsR), encode(cfg.S, mbrsS)
	}

	// dpe needs a positive plan ε even for the ε-less predicates; the
	// kernel never interprets it as a distance for those.
	planEps := cfg.Eps
	if cfg.Pred != extgeom.WithinDistance {
		planEps = 1
	}

	spec := dpe.Spec{
		R:            rs,
		S:            ss,
		Eps:          planEps,
		TupleAssignR: p.assign(cfg.R, mbrsR, widen),
		TupleAssignS: p.assign(cfg.S, mbrsS, 0),
		Cells:        tiles.NumTiles(),
		Part:         dpe.HashPartitioner{N: partitions},
		Workers:      cfg.Workers,
		PoolSize:     cfg.PoolSize,
		Collect:      cfg.Collect,
		Kernel:       p.kernel.Join,
		KernelDesc:   p.kernel.Desc(planEps),
		Engine:       cfg.Engine,
		Tracer:       cfg.Tracer,
		TraceParent:  cfg.TraceParent,
	}

	// ---- Assignment: the map + shuffle phases, with per-class replica
	// bytes accumulated by the assignment closures.
	assignSp := cfg.Tracer.Start(cfg.TraceParent, obs.SpanAssign)
	prep, err := dpe.Prepare(spec)
	if err != nil {
		assignSp.End()
		return nil, err
	}
	for c := ClassA; c < numClasses; c++ {
		assignSp.SetInt("repl_class_bytes_"+c.String(), p.classBytes[c].Load())
	}
	assignSp.End()
	p.prep = prep
	return p, nil
}

// assign builds the row-assignment closure for one side: read the
// row's MBR, widen, cover tiles (reference tile first), and account
// replica bytes per class — summed per object first, so the shared
// counters see one add per class an object has, not one per replica.
func (p *Plan) assign(objs []extgeom.Object, mbrs []geom.Rect, widen float64) dpe.TupleAssign {
	g := p.Grid
	return func(i int, _ tuple.Set, dst []int) []int {
		mbr := mbrs[i]
		if widen > 0 {
			mbr = mbr.Expand(widen)
		}
		dst = g.Cover(mbr, dst)
		var replicas [numClasses]int64
		for _, cell := range dst {
			col, row := g.TileCoords(cell)
			replicas[g.Classify(mbr, col, row)]++
		}
		sz := int64(extgeom.ObjectWireSize(&objs[i]))
		for c, n := range replicas {
			if n > 0 {
				p.classBytes[c].Add(n * sz)
			}
		}
		return dst
	}
}

// ExecOptions are the per-execution knobs.
type ExecOptions struct {
	// Eps re-sweeps a WithinDistance plan at ε' ≤ the plan's ε: both
	// replica sets cover the narrower widening's reference tiles, so
	// correctness and exactly-once emission hold. Zero means the plan ε.
	Eps     float64
	Collect bool

	Tracer      *obs.Tracer
	TraceParent obs.SpanID
}

// Execute runs the per-tile mini-joins over the prepared tiles.
func (p *Plan) Execute(ctx context.Context, opt ExecOptions) (*dpe.Result, error) {
	if opt.Eps != 0 && p.cfg.Pred != extgeom.WithinDistance {
		return nil, fmt.Errorf("twolayer: eps re-sweep only applies to WithinDistance plans")
	}
	tr, parent := opt.Tracer, opt.TraceParent
	if tr == nil {
		tr, parent = p.cfg.Tracer, p.cfg.TraceParent
	}
	st := &p.kernel.Stats
	tiles0, cand0, emit0 := st.Tiles.Load(), st.Candidates.Load(), st.Emitted.Load()
	fallback0, decodeErrs0 := st.FallbackTiles.Load(), st.DecodeErrors.Load()
	sweepSp := tr.Start(parent, obs.SpanSweep)
	res, err := p.prep.ExecuteContext(ctx, dpe.ExecOptions{
		Eps:         opt.Eps,
		Collect:     opt.Collect,
		Tracer:      opt.Tracer,
		TraceParent: opt.TraceParent,
	})
	if err != nil {
		sweepSp.End()
		return nil, err
	}
	// The sweep and refine phases interleave inside the partition
	// tasks; the spans carry this execution's kernel counter deltas
	// (zero on cluster runs, where the kernels live in the worker
	// processes).
	cand := st.Candidates.Load() - cand0
	sweepSp.SetInt("tiles", st.Tiles.Load()-tiles0)
	sweepSp.SetInt("candidates", cand)
	sweepSp.SetInt("fallback_tiles", st.FallbackTiles.Load()-fallback0)
	sweepSp.End()
	refineSp := tr.Start(parent, obs.SpanRefine)
	refineSp.SetInt("candidates", cand)
	refineSp.SetInt("emitted", st.Emitted.Load()-emit0)
	refineSp.SetInt("decode_errors", st.DecodeErrors.Load()-decodeErrs0)
	refineSp.End()
	return res, nil
}

// Join is the one-shot convenience: Prepare + Execute.
func Join(cfg Config) (*dpe.Result, error) {
	p, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	return p.Execute(context.Background(), ExecOptions{Collect: cfg.Collect})
}

// dataBounds resolves the tile grid frame from both sides' MBRs.
func dataBounds(explicit *geom.Rect, rs, ss []geom.Rect) geom.Rect {
	if explicit != nil {
		return *explicit
	}
	b := geom.EmptyRect()
	for _, m := range rs {
		b = b.Union(m)
	}
	for _, m := range ss {
		b = b.Union(m)
	}
	if b.IsEmpty() {
		b = geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	}
	return b
}

// sampleMBRs keeps up to maxSample of the MBRs, each by sample.Keep on
// its object's id with the given seed, widened for the ε predicate — so
// the tile pick depends on the objects, not on their order. Keep's
// samples are nested (a lower fraction keeps a subset), so the fraction
// is lowered until at most maxSample remain; counting first also sizes
// the output exactly.
func sampleMBRs(objs []extgeom.Object, mbrs []geom.Rect, widen float64, seed int64) []geom.Rect {
	if len(mbrs) == 0 {
		return nil
	}
	fraction := float64(maxSample) / float64(len(mbrs))
	n := kept(objs, fraction, seed)
	for n > maxSample {
		fraction *= 0.9 * maxSample / float64(n)
		n = kept(objs, fraction, seed)
	}
	out := make([]geom.Rect, 0, n)
	for i, m := range mbrs {
		if !sample.Keep(objs[i].ID, fraction, seed) {
			continue
		}
		if widen > 0 {
			m = m.Expand(widen)
		}
		out = append(out, m)
	}
	return out
}

// kept counts the objects sample.Keep keeps at fraction and seed.
func kept(objs []extgeom.Object, fraction float64, seed int64) int {
	n := 0
	for i := range objs {
		if sample.Keep(objs[i].ID, fraction, seed) {
			n++
		}
	}
	return n
}
