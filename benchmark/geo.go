package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/tuple"
	"spatialjoin/internal/twolayer"
)

// geoEps is the WithinDistance threshold of the geo-poly workload.
const geoEps = 0.5

// geoBench joins hexagon polygons with 4-vertex polylines on the
// two-layer non-point engine. One operation is an Intersects join
// followed by a WithinDistance join, Prepare included.
type geoBench struct {
	cfg config
	n   int

	r, s  []extgeom.Object
	preds []twolayer.Config
	want  [2]answer // by position in preds
	// cands are the MBR-filter survivors of the reference join, kept to
	// time the exact predicate alone.
	cands [][2]int32
	p50   float64
}

func (b *geoBench) setup() error {
	world := datagen.World()
	gen := func(kind string, verts int, centerSeed, shapeSeed, idBase int64) ([]extgeom.Object, error) {
		return datagen.GeomObjects(
			datagen.GeomSpec{Kind: kind, MinExtent: 0.2, MaxExtent: 1, Verts: verts, ShapeSeed: shapeSeed},
			func(emit func(tuple.Tuple)) { datagen.UniformEach(world, b.n, centerSeed, idBase, emit) })
	}
	var err error
	if b.r, err = gen("polygon", 6, 4*b.cfg.seed, 4*b.cfg.seed+1, 0); err != nil {
		return err
	}
	if b.s, err = gen("polyline", 4, 4*b.cfg.seed+2, 4*b.cfg.seed+3, 1<<40); err != nil {
		return err
	}
	base := twolayer.Config{R: b.r, S: b.s, Workers: simWorkers, Partitions: simPartitions}
	b.preds = []twolayer.Config{base, base}
	b.preds[0].Pred = extgeom.Intersects
	b.preds[1].Pred, b.preds[1].Eps = extgeom.WithinDistance, geoEps
	for i := 0; i < 2; i++ { // warm-up
		if _, err := b.op(); err != nil {
			return err
		}
	}
	return nil
}

func (b *geoBench) teardown() {}

// op runs both joins and reports whether both matched the reference.
func (b *geoBench) op() (bool, error) {
	ok := true
	for i, cfg := range b.preds {
		res, err := twolayer.Join(cfg)
		if err != nil {
			return false, err
		}
		if res.Results != b.want[i].n || res.Checksum != b.want[i].sum {
			ok = false
		}
	}
	return ok, nil
}

// oracle is an MBR-filtered nested loop: S is sorted by MBR left edge,
// every R object scans the S objects whose MBR can come within ε of its
// own, and the survivors go through the exact predicates. No tiles, no
// classes, no replication.
func (b *geoBench) oracle() error {
	type boxed struct {
		mbr geom.Rect
		idx int32
	}
	ss := make([]boxed, len(b.s))
	maxW := 0.0
	for i := range b.s {
		ss[i] = boxed{b.s[i].Bounds(), int32(i)}
		maxW = max(maxW, ss[i].mbr.Width())
	}
	slices.SortFunc(ss, func(x, y boxed) int { return cmp.Compare(x.mbr.MinX, y.mbr.MinX) })
	var part [2]struct {
		want  [2]answer
		cands [][2]int32
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := &part[g]
			for i := g; i < len(b.r); i += 2 {
				r := &b.r[i]
				near := r.Bounds().Expand(geoEps)
				lo := sort.Search(len(ss), func(k int) bool { return ss[k].mbr.MinX >= near.MinX-maxW })
				for k := lo; k < len(ss) && ss[k].mbr.MinX <= near.MaxX; k++ {
					if !near.Intersects(ss[k].mbr) {
						continue
					}
					s := &b.s[ss[k].idx]
					p.cands = append(p.cands, [2]int32{int32(i), ss[k].idx})
					if extgeom.Eval(extgeom.Intersects, r, s, 0) {
						p.want[0].add(r.ID, s.ID)
					}
					if extgeom.Eval(extgeom.WithinDistance, r, s, geoEps) {
						p.want[1].add(r.ID, s.ID)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for i := range b.want {
		b.want[i] = answer{part[0].want[i].n + part[1].want[i].n, part[0].want[i].sum + part[1].want[i].sum}
	}
	b.cands = append(part[0].cands, part[1].cands...)
	if b.cfg.corrupt {
		b.want[0].n++
	}
	return nil
}

func (b *geoBench) window(d time.Duration) (*tally, error) {
	t := closedLoop(d, func() bool {
		ok, err := b.op()
		return err == nil && ok
	})
	b.p50 = median(t.lat["op"])
	return t, nil
}

// layers splits the operation into Prepare and Execute per predicate,
// traced through Config.Tracer, reads the kernel's filter/refine
// counters and the replica bytes per class, and times the exact
// predicate alone on the reference join's candidates.
func (b *geoBench) layers(lp *layerPass) error {
	var errs []error
	var traced []float64
	lp.reps(func() {
		d := lp.timed("rep", func() {
			var tiles, fallback, cands, emitted, spans int64
			var replicaBytes, allBytes int64
			for i, cfg := range b.preds {
				tr := obs.New()
				cfg.Tracer = tr
				var plan *twolayer.Plan
				var res *dpe.Result
				var err error
				lp.timed("twolayer.prepare", func() { plan, err = twolayer.Prepare(cfg) })
				if err == nil {
					lp.timed("twolayer.execute", func() {
						res, err = plan.Execute(context.Background(), twolayer.ExecOptions{})
					})
				}
				lp.importObs(tr)
				if err == nil && (res.Results != b.want[i].n || res.Checksum != b.want[i].sum) {
					err = fmt.Errorf("twolayer %v found %d pairs, the reference %d", cfg.Pred, res.Results, b.want[i].n)
				}
				if err != nil {
					errs = append(errs, err)
					continue
				}
				st := &plan.Kernel().Stats
				tiles += st.Tiles.Load()
				fallback += st.FallbackTiles.Load()
				cands += st.Candidates.Load()
				emitted += st.Emitted.Load()
				spans += int64(tr.Len())
				for class, n := range plan.ClassBytes() {
					allBytes += n
					if class != twolayer.ClassA.String() {
						replicaBytes += n
					}
				}
			}
			lp.set("twolayer.tiles", float64(tiles))
			lp.set("twolayer.fallback_tiles", float64(fallback))
			lp.set("twolayer.candidates", float64(cands))
			lp.set("obs.spans_per_join", float64(spans)/float64(len(b.preds)))
			if cands > 0 {
				lp.set("twolayer.refine_hit_share", float64(emitted)/float64(cands))
			}
			if allBytes > 0 {
				lp.set("twolayer.replica_byte_share", float64(replicaBytes)/float64(allBytes))
			}
		})
		traced = append(traced, float64(d)/float64(time.Millisecond))

		if len(b.cands) > 0 {
			hits := 0
			d := lp.timed("extgeom.refine", func() {
				for _, c := range b.cands {
					if extgeom.Eval(extgeom.WithinDistance, &b.r[c[0]], &b.s[c[1]], geoEps) {
						hits++
					}
				}
			})
			lp.sample("extgeom.refine_ns_per_candidate", float64(d.Nanoseconds())/float64(len(b.cands)))
			if int64(hits) != b.want[1].n {
				errs = append(errs, fmt.Errorf("refine pass found %d pairs, the reference %d", hits, b.want[1].n))
			}
		}
	})
	if b.p50 > 0 {
		lp.set("obs.trace_overhead_pct", (median(traced)-b.p50)/b.p50*100)
	}
	return errors.Join(errs...)
}
