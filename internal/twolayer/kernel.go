package twolayer

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/rtree"
)

// Defaults for the degenerate-tile fallback heuristic.
const (
	// DefaultFallbackMinEntries is the minimum tile population before
	// the kernel considers switching to the R-tree path — below it the
	// sweep wins regardless of shape.
	DefaultFallbackMinEntries = 48
	// DefaultFallbackExtentFrac is the mean x-extent (as a fraction of
	// the tile width) beyond which x-interval sweeping degenerates:
	// when most intervals span most of the tile, every pair survives
	// the x test and the sweep is a disguised nested loop.
	DefaultFallbackExtentFrac = 0.5
)

// KernelStats counts the kernel's filter/refine work across all tiles.
// The counters are atomics: partition tasks run concurrently. They stay
// zero for cluster runs, where the kernel instances live in the worker
// processes.
type KernelStats struct {
	Tiles         atomic.Int64 // tiles with both sides non-empty
	Candidates    atomic.Int64 // MBR-overlap pairs handed to refinement
	Emitted       atomic.Int64 // pairs that passed the exact predicate
	FallbackTiles atomic.Int64 // tiles joined via the R-tree path
	DecodeErrors  atomic.Int64 // replicas dropped on payload corruption
}

// Kernel is the per-tile class-pair mini-join. It implements the
// dpe.Kernel contract: rows arrive grouped by tile and x-sorted by their
// MBR's begin corner, classes are recomputed tile-locally from the MBR
// (no class tags travel on the wire), and the allowed class combinations
// are joined with a forward-scan interval sweep — or a bulk-loaded
// R-tree when the tile is degenerate. An in-process kernel reads each
// row's object and MBR in place from the plan's inputs; a kernel built
// from its wire description decodes them from the payload lane.
type Kernel struct {
	Grid TileGrid
	Pred extgeom.Predicate

	// ForceFallback routes every tile through the R-tree path; the
	// differential tests use it to prove both paths emit identical
	// result sets.
	ForceFallback bool
	// FallbackMinEntries tunes the degeneracy heuristic's population
	// floor (zero selects DefaultFallbackMinEntries).
	FallbackMinEntries int

	Stats KernelStats

	// in holds the inputs an in-process plan's id lanes index; empty
	// when the rows carry object ids and wire-encoded payloads.
	in inputs
}

// inputs are both sides of an in-process join by input row: the objects
// and the MBRs Prepare computed for them.
type inputs struct {
	r, s       []extgeom.Object
	mbrR, mbrS []geom.Rect
}

// KernelFromDesc rebuilds a kernel from its wire description — the
// cluster worker's path.
func KernelFromDesc(desc dpe.KernelDesc) (*Kernel, error) {
	if desc.Kind != dpe.KernelTwoLayer {
		return nil, fmt.Errorf("twolayer: kernel desc kind %d is not KernelTwoLayer", desc.Kind)
	}
	if desc.TileNX < 1 || desc.TileNY < 1 {
		return nil, fmt.Errorf("twolayer: kernel desc tile grid %dx%d invalid", desc.TileNX, desc.TileNY)
	}
	if desc.Predicate > uint8(extgeom.WithinDistance) {
		return nil, fmt.Errorf("twolayer: kernel desc predicate %d unknown", desc.Predicate)
	}
	return &Kernel{
		Grid: NewTileGrid(desc.Bounds, desc.TileNX, desc.TileNY),
		Pred: extgeom.Predicate(desc.Predicate),
	}, nil
}

// Desc returns the wire description a remote worker rebuilds the kernel
// from. refineEps travels so plan validation can bound re-sweeps; the
// kernel itself always refines with the eps of the execution at hand.
func (k *Kernel) Desc(refineEps float64) dpe.KernelDesc {
	return dpe.KernelDesc{
		Kind:      dpe.KernelTwoLayer,
		Bounds:    k.Grid.Bounds,
		TileNX:    k.Grid.NX,
		TileNY:    k.Grid.NY,
		Predicate: uint8(k.Pred),
		RefineEps: refineEps,
	}
}

// entry is one replica inside a tile: the (widened) MBR drives the
// filter, the object and its own MBR are what refinement evaluates. The
// object's vertices are the input's, or a decoded copy in the tile's
// vertex arena.
type entry struct {
	mbr geom.Rect
	box geom.Rect
	obj extgeom.Object
}

// tileScratch is the reusable per-tile working set: the class buckets
// of both sides, the arena every replica's vertices are decoded into,
// the R-tree fallback's flattened S side, and the tile's share of the
// kernel counters. Tiles run concurrently across partition tasks, so the
// scratch cycles through a sync.Pool — after warm-up a tile join
// allocates nothing but the occasional regrowth.
type tileScratch struct {
	byClassR, byClassS [numClasses][]entry
	verts              []geom.Point
	boxes              []rtree.BoxEntry
	flatS              []*entry
	classS             []Class

	candidates, emitted, decodeErrors int64
}

var scratchPool = sync.Pool{New: func() any { return new(tileScratch) }}

// maxPooledScratchBytes bounds what one pooled scratch may keep alive.
// A scratch that grew past it — one huge tile — is left to the garbage
// collector instead of pinning its buckets and arena in the pool for the
// life of the process.
const maxPooledScratchBytes = 4 << 20

// retainedBytes is the capacity the scratch would carry into the pool.
func (sc *tileScratch) retainedBytes() int {
	n := cap(sc.verts)*int(unsafe.Sizeof(geom.Point{})) +
		cap(sc.boxes)*int(unsafe.Sizeof(rtree.BoxEntry{})) +
		cap(sc.flatS)*int(unsafe.Sizeof((*entry)(nil))) +
		cap(sc.classS)*int(unsafe.Sizeof(Class(0)))
	for c := range sc.byClassR {
		n += (cap(sc.byClassR[c]) + cap(sc.byClassS[c])) * int(unsafe.Sizeof(entry{}))
	}
	return n
}

// release returns the scratch to the pool, emptied: an entry's vertices
// may lie in an arena the scratch has since outgrown, which it would
// otherwise pin in the pool.
func (sc *tileScratch) release() {
	if sc.retainedBytes() > maxPooledScratchBytes {
		return
	}
	for c := range sc.byClassR {
		clear(sc.byClassR[c])
		clear(sc.byClassS[c])
		sc.byClassR[c] = sc.byClassR[c][:0]
		sc.byClassS[c] = sc.byClassS[c][:0]
	}
	clear(sc.flatS)
	sc.verts, sc.boxes, sc.flatS, sc.classS = sc.verts[:0], sc.boxes[:0], sc.flatS[:0], sc.classS[:0]
	sc.candidates, sc.emitted, sc.decodeErrors = 0, 0, 0
	scratchPool.Put(sc)
}

// load buckets one side's replicas by class: each row's object and MBR
// come from the plan's inputs (objs, mbrs) or, when objs is nil, from a
// single decode pass over its payload. widen is the ε the side's MBRs
// are expanded by. The rows arrive x-sorted by begin corner and a
// uniform widening keeps that order, so every bucket is in sweep order;
// one comparison per replica checks it, and a bucket handed out of
// order is sorted.
func (k *Kernel) load(sc *tileScratch, byClass *[numClasses][]entry, g *colpipe.Group, objs []extgeom.Object, mbrs []geom.Rect, widen float64, col, row int) {
	var unsorted [numClasses]bool
	for i, id := range g.IDs {
		var e entry
		if objs != nil {
			e.obj, e.box = objs[id], mbrs[id]
		} else {
			var payload []byte // a slab whose rows all carry none has no lane
			if g.Payloads != nil {
				payload = g.Payloads[i]
			}
			obj, mbr, verts, err := extgeom.DecodeObjectInto(sc.verts, id, payload)
			if err != nil {
				sc.decodeErrors++
				continue
			}
			sc.verts, e.obj, e.box = verts, obj, mbr
		}
		e.mbr = e.box
		if widen > 0 {
			e.mbr = e.box.Expand(widen)
		}
		if !k.Grid.Covers(e.mbr, col, row) {
			// A re-sweep at ε' < plan ε: the ε-widened assignment put a
			// replica here, but the ε'-widened MBR no longer reaches
			// this tile. Its reference tile is covered by both sides'
			// narrower replicas, so dropping the stale copy is safe —
			// and classifying it would double-emit.
			continue
		}
		c := k.Grid.Classify(e.mbr, col, row)
		if n := len(byClass[c]); n > 0 && e.mbr.MinX < byClass[c][n-1].mbr.MinX {
			unsorted[c] = true
		}
		byClass[c] = append(byClass[c], e)
	}
	for c, u := range unsorted {
		if u {
			slices.SortFunc(byClass[c], func(a, b entry) int { return cmp.Compare(a.mbr.MinX, b.mbr.MinX) })
		}
	}
}

// widenR is the R-side MBR widening: WithinDistance assigns and
// classifies R objects by their ε-expanded MBR so that every pair
// within ε shares a tile. Intersects and Contains use the raw MBR.
func (k *Kernel) widenR(eps float64) float64 {
	if k.Pred == extgeom.WithinDistance {
		return eps
	}
	return 0
}

// Join joins one tile. eps is the execution threshold: a re-sweep with
// ε' ≤ plan ε re-classifies with the narrower widening, which both
// replica sets still cover, so exactly-once emission is preserved.
func (k *Kernel) Join(cell int, r, s *colpipe.Group, eps float64, out *colsweep.Sink) {
	col, row := k.Grid.TileCoords(cell)
	widen := k.widenR(eps)

	// Materialise replicas, classify tile-locally, and bucket by class
	// in pooled scratch. Only the R side is widened.
	sc := scratchPool.Get().(*tileScratch)
	defer sc.release()
	k.load(sc, &sc.byClassR, r, k.in.r, k.in.mbrR, widen, col, row)
	k.load(sc, &sc.byClassS, s, k.in.s, k.in.mbrS, 0, col, row)

	if k.ForceFallback || k.degenerate(sc) {
		k.Stats.FallbackTiles.Add(1)
		k.joinRtree(sc, eps, out)
	} else {
		for cr := ClassA; cr < numClasses; cr++ {
			for cs := ClassA; cs < numClasses; cs++ {
				if comboAllowed(cr, cs) {
					k.sweepCombo(sc, sc.byClassR[cr], sc.byClassS[cs], eps, out)
				}
			}
		}
	}

	// The tile counted locally; the shared atomics see one add each.
	k.Stats.Tiles.Add(1)
	k.Stats.Candidates.Add(sc.candidates)
	k.Stats.Emitted.Add(sc.emitted)
	if sc.decodeErrors > 0 {
		k.Stats.DecodeErrors.Add(sc.decodeErrors)
	}
}

// degenerate applies the fallback heuristic: a populated tile whose
// entries' x-extents mostly span the tile makes the x-interval sweep
// quadratic, so the R-tree (which also partitions on y) wins.
func (k *Kernel) degenerate(sc *tileScratch) bool {
	byClassR, byClassS := &sc.byClassR, &sc.byClassS
	minEntries := k.FallbackMinEntries
	if minEntries <= 0 {
		minEntries = DefaultFallbackMinEntries
	}
	tw := k.Grid.tw
	if tw <= 0 {
		return false
	}
	n := 0
	var extent float64
	for c := ClassA; c < numClasses; c++ {
		for i := range byClassR[c] {
			extent += byClassR[c][i].mbr.Width()
		}
		for i := range byClassS[c] {
			extent += byClassS[c][i].mbr.Width()
		}
		n += len(byClassR[c]) + len(byClassS[c])
	}
	return n >= minEntries && extent/float64(n) >= DefaultFallbackExtentFrac*tw
}

// sweepCombo forward-scan sweeps one allowed class pair: both lists
// sorted by MBR x-start (load leaves them so), the earlier-starting
// entry scanned forward in the other list while x-intervals overlap,
// then a y-overlap check, then exact refinement.
func (k *Kernel) sweepCombo(sc *tileScratch, res, ses []entry, eps float64, out *colsweep.Sink) {
	i, j := 0, 0
	for i < len(res) && j < len(ses) {
		if res[i].mbr.MinX <= ses[j].mbr.MinX {
			r := &res[i]
			for jj := j; jj < len(ses) && ses[jj].mbr.MinX <= r.mbr.MaxX; jj++ {
				k.tryPair(sc, r, &ses[jj], eps, out)
			}
			i++
		} else {
			s := &ses[j]
			for ii := i; ii < len(res) && res[ii].mbr.MinX <= s.mbr.MaxX; ii++ {
				k.tryPair(sc, &res[ii], s, eps, out)
			}
			j++
		}
	}
}

// tryPair finishes the filter (y overlap; x overlap is the sweep's
// invariant) and refines with the exact predicate on the unwidened MBRs.
func (k *Kernel) tryPair(sc *tileScratch, r, s *entry, eps float64, out *colsweep.Sink) {
	if r.mbr.MinY > s.mbr.MaxY || s.mbr.MinY > r.mbr.MaxY {
		return
	}
	sc.candidates++
	if extgeom.EvalBoxed(k.Pred, &r.obj, &s.obj, r.box, s.box, eps) {
		sc.emitted++
		out.Add(r.obj.ID, s.obj.ID)
	}
}

// joinRtree is the degenerate-tile path: STR bulk-load the S replicas
// into a BoxTree, probe with each R MBR, and gate emissions on the same
// class table. The candidate set (MBR x AND y overlap) is identical to
// the sweeps', so both paths emit identical result sets.
func (k *Kernel) joinRtree(sc *tileScratch, eps float64, out *colsweep.Sink) {
	for c := ClassA; c < numClasses; c++ {
		for i := range sc.byClassS[c] {
			e := &sc.byClassS[c][i]
			sc.boxes = append(sc.boxes, rtree.BoxEntry{Rect: e.mbr, Ref: int32(len(sc.flatS))})
			sc.flatS = append(sc.flatS, e)
			sc.classS = append(sc.classS, c)
		}
	}
	if len(sc.boxes) == 0 {
		return
	}
	tree := rtree.BuildBoxes(sc.boxes, rtree.DefaultFanout)
	for cr := ClassA; cr < numClasses; cr++ {
		for i := range sc.byClassR[cr] {
			r := &sc.byClassR[cr][i]
			tree.SearchIntersects(r.mbr, func(be rtree.BoxEntry) {
				if !comboAllowed(cr, sc.classS[be.Ref]) {
					return
				}
				k.tryPair(sc, r, sc.flatS[be.Ref], eps, out)
			})
		}
	}
}
