package sedonasim

import (
	"fmt"

	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/quadtree"
	"spatialjoin/internal/rtree"
	"spatialjoin/internal/sample"
	"spatialjoin/internal/tuple"
)

// ObjectsConfig parameterises a Sedona-style non-point join, the
// independent baseline the two-layer engine is differentially tested
// against. The execution shape mirrors Sedona's spatial join on
// geometries: quadtree partitioning on MBR centers, the larger side
// indexed uniquely by its center leaf, the smaller side replicated to
// every leaf its suitably expanded MBR reaches, per-leaf R-tree
// filter + exact refine. Unique indexed-side assignment means no
// deduplication is needed.
type ObjectsConfig struct {
	Pred extgeom.Predicate
	Eps  float64 // WithinDistance threshold; ignored otherwise

	Partitions     int     // target quadtree leaf count; default 64
	SampleFraction float64 // partitioner sample; default 0.03
	Seed           int64
	Fanout         int        // per-leaf R-tree fanout
	Bounds         *geom.Rect // data-space MBR; computed when nil
}

// JoinObjects joins two object sets under cfg.Pred and returns the
// result pairs (always collected — this path exists to be compared
// against).
func JoinObjects(rs, ss []extgeom.Object, cfg ObjectsConfig) ([]tuple.Pair, error) {
	if cfg.Pred > extgeom.WithinDistance {
		return nil, fmt.Errorf("sedonasim: unknown predicate %d", cfg.Pred)
	}
	eps := 0.0
	if cfg.Pred == extgeom.WithinDistance {
		if cfg.Eps <= 0 {
			return nil, fmt.Errorf("sedonasim: WithinDistance needs a positive eps, got %v", cfg.Eps)
		}
		eps = cfg.Eps
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 64
	}
	if cfg.SampleFraction <= 0 {
		cfg.SampleFraction = 0.03
	}

	bounds := objectBounds(cfg.Bounds, rs, ss)

	// The larger side is indexed (uniquely assigned by MBR center), the
	// smaller side probes with replication.
	indexIsR := len(rs) > len(ss)
	indexed, probe := ss, rs
	if indexIsR {
		indexed, probe = rs, ss
	}

	// Partition on the probe side's centers, sampled by sample.Keep.
	var smp []tuple.Tuple
	for i := range probe {
		if sample.Keep(probe[i].ID, cfg.SampleFraction, cfg.Seed) {
			smp = append(smp, tuple.Tuple{ID: probe[i].ID, Pt: probe[i].Bounds().Center()})
		}
	}
	capacity := len(smp) / cfg.Partitions
	if capacity < 1 {
		capacity = 1
	}
	qt := quadtree.Build(smp, bounds, capacity, 0)

	// An indexed object lands in the leaf of its MBR center; a probe
	// object must reach that leaf whenever the pair can match, so its
	// MBR is expanded by ε plus the largest indexed half-diagonal (the
	// center is at most that far from any point of its own geometry).
	maxHalfDiag := 0.0
	for i := range indexed {
		if hd := indexed[i].HalfDiag(); hd > maxHalfDiag {
			maxHalfDiag = hd
		}
	}

	type entry struct {
		mbr geom.Rect
		obj *extgeom.Object
	}
	idxLeaf := make([][]entry, qt.NumLeaves())
	for i := range indexed {
		o := &indexed[i]
		leaf := qt.Locate(o.Bounds().Center())
		idxLeaf[leaf] = append(idxLeaf[leaf], entry{mbr: o.Bounds(), obj: o})
	}

	// One STR-packed tree per populated leaf, built once.
	trees := make([]*rtree.BoxTree, qt.NumLeaves())
	for leaf, es := range idxLeaf {
		if len(es) == 0 {
			continue
		}
		boxes := make([]rtree.BoxEntry, len(es))
		for j, e := range es {
			boxes[j] = rtree.BoxEntry{Rect: e.mbr, Ref: int32(j)}
		}
		trees[leaf] = rtree.BuildBoxes(boxes, cfg.Fanout)
	}

	var pairs []tuple.Pair
	var leaves []int
	for i := range probe {
		p := &probe[i]
		pmbr := p.Bounds()
		leaves = qt.RectLeaves(pmbr.Expand(eps+maxHalfDiag), leaves[:0])
		probeMBR := pmbr.Expand(eps) // candidate filter: MBR gap ≤ ε per axis
		for _, leaf := range leaves {
			tree := trees[leaf]
			if tree == nil {
				continue
			}
			es := idxLeaf[leaf]
			tree.SearchIntersects(probeMBR, func(be rtree.BoxEntry) {
				s := es[be.Ref].obj
				r := p
				if indexIsR {
					r, s = s, r
				}
				if extgeom.Eval(cfg.Pred, r, s, eps) {
					pairs = append(pairs, tuple.Pair{RID: r.ID, SID: s.ID})
				}
			})
		}
	}
	return pairs, nil
}

func objectBounds(explicit *geom.Rect, rs, ss []extgeom.Object) geom.Rect {
	if explicit != nil {
		return *explicit
	}
	b := geom.EmptyRect()
	for i := range rs {
		b = b.Union(rs[i].Bounds())
	}
	for i := range ss {
		b = b.Union(ss[i].Bounds())
	}
	if b.IsEmpty() {
		b = geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	}
	return b
}
