package twolayer

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/extjoin"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/sedonasim"
	"spatialjoin/internal/tuple"
)

// ---- Test data -------------------------------------------------------

func randObjects(rng *rand.Rand, n int, idBase int64, world geom.Rect, maxExtent float64) []extgeom.Object {
	out := make([]extgeom.Object, n)
	for i := range out {
		cx := world.MinX + rng.Float64()*world.Width()
		cy := world.MinY + rng.Float64()*world.Height()
		r := maxExtent * (0.05 + 0.95*rng.Float64())
		id := idBase + int64(i)
		switch rng.Intn(3) {
		case 0: // axis-aligned rectangle as a 4-vertex polygon
			w, h := r*(0.2+rng.Float64()), r*(0.2+rng.Float64())
			out[i] = extgeom.NewPolygon(id, []geom.Point{
				{X: cx - w, Y: cy - h}, {X: cx + w, Y: cy - h},
				{X: cx + w, Y: cy + h}, {X: cx - w, Y: cy + h},
			})
		case 1: // polyline
			nv := 2 + rng.Intn(4)
			verts := make([]geom.Point, nv)
			for j := range verts {
				verts[j] = geom.Point{X: cx + (rng.Float64()*2-1)*r, Y: cy + (rng.Float64()*2-1)*r}
			}
			out[i] = extgeom.NewPolyline(id, verts)
		default: // star-shaped simple polygon
			nv := 3 + rng.Intn(5)
			angles := make([]float64, nv)
			for j := range angles {
				angles[j] = rng.Float64() * 2 * math.Pi
			}
			slices.Sort(angles)
			verts := make([]geom.Point, nv)
			for j, a := range angles {
				rad := r * (0.3 + 0.7*rng.Float64())
				verts[j] = geom.Point{X: cx + rad*math.Cos(a), Y: cy + rad*math.Sin(a)}
			}
			out[i] = extgeom.NewPolygon(id, verts)
		}
	}
	return out
}

func bruteForce(rs, ss []extgeom.Object, pred extgeom.Predicate, eps float64) []tuple.Pair {
	var out []tuple.Pair
	for i := range rs {
		for j := range ss {
			if extgeom.Eval(pred, &rs[i], &ss[j], eps) {
				out = append(out, tuple.Pair{RID: rs[i].ID, SID: ss[j].ID})
			}
		}
	}
	sortPairs(out)
	return out
}

func sortPairs(ps []tuple.Pair) {
	slices.SortFunc(ps, func(a, b tuple.Pair) int {
		if a.RID != b.RID {
			return cmp.Compare(a.RID, b.RID)
		}
		return cmp.Compare(a.SID, b.SID)
	})
}

func pairsEqual(t *testing.T, label string, got, want []tuple.Pair) {
	t.Helper()
	sortPairs(got)
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d is %v, want %v", label, i, got[i], want[i])
		}
	}
}

var allPredicates = []extgeom.Predicate{extgeom.Intersects, extgeom.Contains, extgeom.WithinDistance}

// ---- Grid unit tests -------------------------------------------------

func TestTwoLayerGridCoverAndClassify(t *testing.T) {
	g := NewTileGrid(geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 5, 5)
	// An MBR spanning tiles (1..2, 1..2): reference tile first.
	mbr := geom.Rect{MinX: 2.5, MinY: 2.5, MaxX: 5.5, MaxY: 5.5}
	cover := g.Cover(mbr, nil)
	if len(cover) != 4 {
		t.Fatalf("cover = %v, want 4 tiles", cover)
	}
	if cover[0] != g.TileID(1, 1) {
		t.Fatalf("reference tile %d not first in %v", g.TileID(1, 1), cover)
	}
	wantClass := map[int]Class{
		g.TileID(1, 1): ClassA,
		g.TileID(2, 1): ClassB,
		g.TileID(1, 2): ClassC,
		g.TileID(2, 2): ClassD,
	}
	for _, tile := range cover {
		col, row := g.TileCoords(tile)
		if got := g.Classify(mbr, col, row); got != wantClass[tile] {
			t.Errorf("tile (%d,%d): class %v, want %v", col, row, got, wantClass[tile])
		}
	}
	// Out-of-bounds MBRs clamp onto border tiles.
	out := g.Cover(geom.Rect{MinX: -5, MinY: -5, MaxX: -1, MaxY: -1}, nil)
	if len(out) != 1 || out[0] != g.TileID(0, 0) {
		t.Fatalf("out-of-bounds cover = %v, want [0]", out)
	}
	// An MBR flush with a tile edge: Cover and Classify agree on the
	// begin tile (both go through ColOf/RowOf).
	edge := geom.Rect{MinX: 4, MinY: 4, MaxX: 4, MaxY: 4} // exactly on the (2,2) corner
	cov := g.Cover(edge, nil)
	if len(cov) != 1 {
		t.Fatalf("edge cover = %v", cov)
	}
	col, row := g.TileCoords(cov[0])
	if got := g.Classify(edge, col, row); got != ClassA {
		t.Fatalf("edge replica class %v, want A", got)
	}
}

func TestTwoLayerComboTable(t *testing.T) {
	want := map[[2]Class]bool{
		{ClassA, ClassA}: true, {ClassA, ClassB}: true, {ClassB, ClassA}: true,
		{ClassA, ClassC}: true, {ClassC, ClassA}: true, {ClassB, ClassC}: true,
		{ClassC, ClassB}: true, {ClassA, ClassD}: true, {ClassD, ClassA}: true,
	}
	n := 0
	for cr := ClassA; cr < numClasses; cr++ {
		for cs := ClassA; cs < numClasses; cs++ {
			if comboAllowed(cr, cs) {
				n++
				if !want[[2]Class{cr, cs}] {
					t.Errorf("combo %v×%v allowed but should not be", cr, cs)
				}
			}
		}
	}
	if n != len(want) {
		t.Errorf("%d combos allowed, want %d", n, len(want))
	}
}

// ---- Differential tests ---------------------------------------------

func TestTwoLayerVsBruteForce(t *testing.T) {
	world := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rs := randObjects(rng, 300, 0, world, 3+rng.Float64()*5)
		ss := randObjects(rng, 300, 10_000, world, 3+rng.Float64()*5)
		for _, pred := range allPredicates {
			for _, tiles := range []int{0, 1, 7} {
				res, err := Join(Config{
					R: rs, S: ss, Pred: pred, Eps: 2.5, Tiles: tiles, Collect: true,
				})
				if err != nil {
					t.Fatalf("seed %d %v tiles=%d: %v", seed, pred, tiles, err)
				}
				want := bruteForce(rs, ss, pred, 2.5)
				pairsEqual(t, fmt.Sprintf("seed %d %v tiles=%d", seed, pred, tiles), res.Pairs, want)
			}
		}
	}
}

func TestTwoLayerVsSedonasim(t *testing.T) {
	world := geom.Rect{MinX: -50, MinY: -50, MaxX: 50, MaxY: 50}
	rng := rand.New(rand.NewSource(42))
	rs := randObjects(rng, 500, 0, world, 4)
	ss := randObjects(rng, 350, 10_000, world, 4)
	for _, pred := range allPredicates {
		res, err := Join(Config{R: rs, S: ss, Pred: pred, Eps: 1.5, Collect: true})
		if err != nil {
			t.Fatalf("%v: %v", pred, err)
		}
		oracle, err := sedonasim.JoinObjects(rs, ss, sedonasim.ObjectsConfig{Pred: pred, Eps: 1.5})
		if err != nil {
			t.Fatalf("sedonasim %v: %v", pred, err)
		}
		sortPairs(oracle)
		pairsEqual(t, pred.String(), res.Pairs, oracle)
	}
}

func TestTwoLayerVsExtjoinWithin(t *testing.T) {
	world := geom.Rect{MinX: 0, MinY: 0, MaxX: 80, MaxY: 80}
	rng := rand.New(rand.NewSource(7))
	rs := randObjects(rng, 400, 0, world, 3)
	ss := randObjects(rng, 400, 10_000, world, 3)
	const eps = 2.0
	res, err := Join(Config{R: rs, S: ss, Pred: extgeom.WithinDistance, Eps: eps, Collect: true})
	if err != nil {
		t.Fatalf("twolayer: %v", err)
	}
	ext, err := extjoin.Join(rs, ss, extjoin.Config{Eps: eps, Collect: true})
	if err != nil {
		t.Fatalf("extjoin: %v", err)
	}
	pairsEqual(t, "within", res.Pairs, func() []tuple.Pair { sortPairs(ext.Pairs); return ext.Pairs }())
}

// TestTwoLayerNoDuplicates is the exactly-once proof: the collected
// pairs are the raw kernel emissions (no dedup pass, no hash set
// anywhere in the path), so any double emission would surface as a
// repeated pair.
func TestTwoLayerNoDuplicates(t *testing.T) {
	world := geom.Rect{MinX: 0, MinY: 0, MaxX: 60, MaxY: 60}
	rng := rand.New(rand.NewSource(11))
	// Fat objects: extents comparable to tile sizes, so B/C/D replicas
	// and every mini-join combo occur.
	rs := randObjects(rng, 400, 0, world, 10)
	ss := randObjects(rng, 400, 10_000, world, 10)
	for _, pred := range allPredicates {
		for _, tiles := range []int{2, 5, 16} {
			res, err := Join(Config{R: rs, S: ss, Pred: pred, Eps: 3, Tiles: tiles, Collect: true})
			if err != nil {
				t.Fatalf("%v tiles=%d: %v", pred, tiles, err)
			}
			counts := map[tuple.Pair]int{}
			for _, p := range res.Pairs {
				counts[p]++
				if counts[p] > 1 {
					t.Fatalf("%v tiles=%d: pair %v emitted %d times", pred, tiles, p, counts[p])
				}
			}
		}
	}
}

func TestTwoLayerForcedFallbackEquivalence(t *testing.T) {
	world := geom.Rect{MinX: 0, MinY: 0, MaxX: 60, MaxY: 60}
	rng := rand.New(rand.NewSource(13))
	// Extreme aspect ratios: long flat rectangles that degenerate the
	// x-interval sweep — the fallback's home turf.
	rs := make([]extgeom.Object, 200)
	for i := range rs {
		cx, cy := rng.Float64()*60, rng.Float64()*60
		w, h := 5+rng.Float64()*20, 0.05+rng.Float64()*0.2
		rs[i] = extgeom.NewPolygon(int64(i), []geom.Point{
			{X: cx - w, Y: cy - h}, {X: cx + w, Y: cy - h},
			{X: cx + w, Y: cy + h}, {X: cx - w, Y: cy + h},
		})
	}
	ss := randObjects(rng, 300, 10_000, world, 6)
	for _, pred := range allPredicates {
		base, err := Join(Config{R: rs, S: ss, Pred: pred, Eps: 2, Tiles: 4, Collect: true})
		if err != nil {
			t.Fatalf("sweep %v: %v", pred, err)
		}
		plan, err := Prepare(Config{R: rs, S: ss, Pred: pred, Eps: 2, Tiles: 4, Collect: true})
		if err != nil {
			t.Fatalf("fallback %v: %v", pred, err)
		}
		plan.Kernel().forceFallback = true
		forced, err := plan.Execute(context.Background(), ExecOptions{Collect: true})
		if err != nil {
			t.Fatalf("fallback %v: %v", pred, err)
		}
		if plan.Kernel().Stats.FallbackTiles.Load() == 0 {
			t.Fatalf("fallback %v: no tile took the R-tree path", pred)
		}
		sortPairs(base.Pairs)
		pairsEqual(t, "fallback "+pred.String(), forced.Pairs, base.Pairs)
	}
}

func TestTwoLayerFallbackHeuristicFires(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// One tile full of tile-spanning slivers must trip the heuristic.
	rs := make([]extgeom.Object, 80)
	ss := make([]extgeom.Object, 80)
	for i := range rs {
		y := rng.Float64() * 10
		rs[i] = extgeom.NewPolyline(int64(i), []geom.Point{{X: 0.1, Y: y}, {X: 9.9, Y: y + 0.01}})
		y = rng.Float64() * 10
		ss[i] = extgeom.NewPolyline(int64(1000+i), []geom.Point{{X: 0.1, Y: y}, {X: 9.9, Y: y + 0.01}})
	}
	p, err := Prepare(Config{R: rs, S: ss, Pred: extgeom.Intersects, Tiles: 1, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(context.Background(), ExecOptions{Collect: true}); err != nil {
		t.Fatal(err)
	}
	if p.Kernel().Stats.FallbackTiles.Load() == 0 {
		t.Fatal("degeneracy heuristic never chose the R-tree path")
	}
}

// TestTwoLayerResweep: a WithinDistance plan prepared at ε serves any
// ε' ≤ ε without re-preparation, still exact and duplicate-free.
func TestTwoLayerResweep(t *testing.T) {
	world := geom.Rect{MinX: 0, MinY: 0, MaxX: 70, MaxY: 70}
	rng := rand.New(rand.NewSource(19))
	rs := randObjects(rng, 300, 0, world, 4)
	ss := randObjects(rng, 300, 10_000, world, 4)
	const planEps = 3.0
	p, err := Prepare(Config{R: rs, S: ss, Pred: extgeom.WithinDistance, Eps: planEps, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{planEps, 1.5, 0.4} {
		res, err := p.Execute(context.Background(), ExecOptions{Eps: eps, Collect: true})
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		want := bruteForce(rs, ss, extgeom.WithinDistance, eps)
		pairsEqual(t, fmt.Sprintf("resweep eps=%v", eps), res.Pairs, want)
	}
	if _, err := p.Execute(context.Background(), ExecOptions{Eps: planEps * 2}); err == nil {
		t.Fatal("re-sweep above the plan eps must be rejected")
	}
	// ε-less plans reject re-sweeps outright.
	pi, err := Prepare(Config{R: rs[:10], S: ss[:10], Pred: extgeom.Intersects})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pi.Execute(context.Background(), ExecOptions{Eps: 0.5}); err == nil {
		t.Fatal("eps re-sweep on an Intersects plan must be rejected")
	}
}

// TestTwoLayerExecuteSpansPerExecution: an execution has one sweep span
// — refinement runs inside the sweep's tiles — and it carries that
// execution's five kernel counter deltas only, so executing a cached
// plan a second time reports what the first did. The refine span after
// it is an empty marker.
func TestTwoLayerExecuteSpansPerExecution(t *testing.T) {
	world := geom.Rect{MinX: 0, MinY: 0, MaxX: 50, MaxY: 50}
	rng := rand.New(rand.NewSource(29))
	rs := randObjects(rng, 300, 0, world, 4)
	ss := randObjects(rng, 300, 10_000, world, 4)
	p, err := Prepare(Config{R: rs, S: ss, Pred: extgeom.WithinDistance, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	sweeps := func() [][]obs.Attr {
		tr := obs.New()
		if _, err := p.Execute(context.Background(), ExecOptions{Tracer: tr}); err != nil {
			t.Fatal(err)
		}
		var out [][]obs.Attr
		for _, sp := range tr.Spans() {
			switch sp.Name {
			case obs.SpanSweep:
				out = append(out, sp.Attrs)
			case obs.SpanRefine:
				if len(sp.Attrs) != 0 {
					t.Errorf("refine marker carries %v", sp.Attrs)
				}
			}
		}
		return out
	}
	first, second := sweeps(), sweeps()
	if len(first) != 1 || len(second) != 1 {
		t.Fatalf("%d and %d sweep spans, want one per execution", len(first), len(second))
	}
	var keys []string
	for _, a := range first[0] {
		keys = append(keys, a.Key)
	}
	if want := []string{"tiles", "candidates", "emitted", "fallback_tiles", "decode_errors"}; !slices.Equal(keys, want) {
		t.Fatalf("sweep span counters %v, want %v", keys, want)
	}
	if tiles := first[0][0]; tiles.Int == 0 {
		t.Fatalf("first sweep span %v: no tiles joined", first[0])
	}
	if !slices.Equal(second[0], first[0]) {
		t.Errorf("second execution's sweep span %v, the first's %v", second[0], first[0])
	}
}

func TestTwoLayerKernelDescRoundTrip(t *testing.T) {
	k := &Kernel{
		Grid: NewTileGrid(geom.Rect{MinX: -3, MinY: 2, MaxX: 9, MaxY: 11}, 12, 7),
		Pred: extgeom.WithinDistance,
	}
	desc := k.Desc(1.25)
	if desc.Kind != dpe.KernelTwoLayer || desc.RefineEps != 1.25 {
		t.Fatalf("desc = %+v", desc)
	}
	k2, err := KernelFromDesc(desc)
	if err != nil {
		t.Fatal(err)
	}
	if k2.Grid != k.Grid || k2.Pred != k.Pred {
		t.Fatalf("rebuilt kernel %+v differs from %+v", k2, k)
	}
	if _, err := KernelFromDesc(dpe.KernelDesc{Kind: dpe.KernelSweep}); err == nil {
		t.Fatal("wrong kind accepted")
	}
	if _, err := KernelFromDesc(dpe.KernelDesc{Kind: dpe.KernelTwoLayer, TileNX: 0, TileNY: 3}); err == nil {
		t.Fatal("zero tile grid accepted")
	}
}

// TestTwoLayerSkewReport: the assign span carries per-class replica
// bytes and the skew report surfaces them.
func TestTwoLayerSkewReport(t *testing.T) {
	world := geom.Rect{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40}
	rng := rand.New(rand.NewSource(23))
	rs := randObjects(rng, 200, 0, world, 8)
	ss := randObjects(rng, 200, 10_000, world, 8)
	tr := obs.New()
	root := tr.Start(0, obs.SpanJoin)
	p, err := Prepare(Config{
		R: rs, S: ss, Pred: extgeom.Intersects, Tiles: 6, Collect: true,
		Tracer: tr, TraceParent: root.SpanID(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(context.Background(), ExecOptions{Collect: true}); err != nil {
		t.Fatal(err)
	}
	root.End()
	rep := tr.Skew()
	if len(rep.ReplicationBytesByClass) == 0 {
		t.Fatal("skew report has no per-class replication bytes")
	}
	if rep.ReplicationBytesByClass["A"] <= 0 {
		t.Fatalf("class A bytes = %d, want > 0 (every object has a native copy): %+v",
			rep.ReplicationBytesByClass["A"], rep.ReplicationBytesByClass)
	}
	// Fat objects on a 6×6 grid must replicate: some non-A class has bytes.
	if rep.ReplicationBytesByClass["B"]+rep.ReplicationBytesByClass["C"]+rep.ReplicationBytesByClass["D"] == 0 {
		t.Fatalf("no extent replication recorded: %+v", rep.ReplicationBytesByClass)
	}
	// The plan's own view agrees with the trace, and both with the
	// replica bytes the grid itself implies: the map phase sums them per
	// object before touching the shared counters.
	cb := p.ClassBytes()
	want := map[string]int64{"a": 0, "b": 0, "c": 0, "d": 0}
	for _, objs := range [][]extgeom.Object{rs, ss} {
		for i := range objs {
			mbr := objs[i].Bounds()
			for _, cell := range p.Grid.Cover(mbr, nil) {
				col, row := p.Grid.TileCoords(cell)
				want[p.Grid.Classify(mbr, col, row).String()] += int64(extgeom.ObjectWireSize(&objs[i]))
			}
		}
	}
	if !maps.Equal(cb, want) {
		t.Fatalf("ClassBytes %v, the grid implies %v", cb, want)
	}
	for class, bytes := range rep.ReplicationBytesByClass {
		if cb[map[string]string{"A": "a", "B": "b", "C": "c", "D": "d"}[class]] != bytes {
			t.Fatalf("ClassBytes %v disagree with skew report %v", cb, rep.ReplicationBytesByClass)
		}
	}
}

func TestTwoLayerValidation(t *testing.T) {
	if _, err := Join(Config{Pred: extgeom.WithinDistance}); err == nil {
		t.Fatal("WithinDistance without eps accepted")
	}
	if _, err := Join(Config{Pred: extgeom.Predicate(9)}); err == nil {
		t.Fatal("unknown predicate accepted")
	}
	// Empty inputs are fine.
	res, err := Join(Config{Pred: extgeom.Intersects, Collect: true})
	if err != nil || len(res.Pairs) != 0 {
		t.Fatalf("empty join: %v, %d pairs", err, len(res.Pairs))
	}
}

// TestTwoLayerResolutionSelection: the cost model picks finer grids for
// many small objects than for few fat ones.
func TestTwoLayerResolutionSelection(t *testing.T) {
	world := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	rng := rand.New(rand.NewSource(29))
	small := randObjects(rng, 3000, 0, world, 0.5)
	fat := randObjects(rng, 60, 50_000, world, 40)

	pSmall, err := Prepare(Config{R: small, S: small, Pred: extgeom.Intersects})
	if err != nil {
		t.Fatal(err)
	}
	pFat, err := Prepare(Config{R: fat, S: fat, Pred: extgeom.Intersects})
	if err != nil {
		t.Fatal(err)
	}
	if pSmall.Grid.NX <= pFat.Grid.NX {
		t.Fatalf("small-object grid %dx%d not finer than fat-object grid %dx%d",
			pSmall.Grid.NX, pSmall.Grid.NY, pFat.Grid.NX, pFat.Grid.NY)
	}
}

// square is an axis-aligned square polygon.
func square(id int64, x, y, side float64) extgeom.Object {
	return extgeom.NewPolygon(id, []geom.Point{
		{X: x, Y: y}, {X: x + side, Y: y}, {X: x + side, Y: y + side}, {X: x, Y: y + side},
	})
}

// squareTuple encodes an axis-aligned square as an engine plan's join
// tuple.
func squareTuple(id int64, x, y, side float64) tuple.Tuple {
	o := square(id, x, y, side)
	return encode([]extgeom.Object{o}, []geom.Rect{o.Bounds()})[0]
}

// groupOf lays tuples out as the slab group view a kernel is handed.
func groupOf(ts []tuple.Tuple) *colpipe.Group {
	g := &colpipe.Group{Payloads: [][]byte{}}
	for _, t := range ts {
		g.Append(t.Pt.X, t.Pt.Y, t.ID)
		g.Payloads = append(g.Payloads, t.Payload)
	}
	return g
}

// rowGroup lays input rows out as an in-process plan's group view: the
// row as the id, the begin corner as the point, no payload lane.
func rowGroup(mbrs []geom.Rect, rows ...int) *colpipe.Group {
	g := &colpipe.Group{}
	for _, i := range rows {
		g.Append(mbrs[i].MinX, mbrs[i].MinY, int64(i))
	}
	return g
}

// tableKernel is an in-process kernel over rs and ss, as Prepare builds
// it without an engine.
func tableKernel(grid TileGrid, pred extgeom.Predicate, rs, ss []extgeom.Object) *Kernel {
	mbrR, err := validMBRs(rs)
	if err != nil {
		panic(err)
	}
	mbrS, err := validMBRs(ss)
	if err != nil {
		panic(err)
	}
	return &Kernel{Grid: grid, Pred: pred, in: inputs{r: rs, s: ss, mbrR: mbrR, mbrS: mbrS}}
}

// TestTwoLayerKernelJoinAllocs pins the per-tile allocation behaviour
// of the kernel: with the pooled tile scratch warm, a tile join must not
// allocate at all — not when every candidate dies in the MBR filter, and
// not when candidates are read, refined and emitted, whether the kernel
// decodes payloads or reads its inputs in place. The class buckets, the
// vertex arena, the sweep and the exact predicates all run in reused
// memory.
func TestTwoLayerKernelJoinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race pass")
	}
	world := geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	for _, tc := range []struct {
		name string
		sy   float64 // y of the S row; the R row spans y ∈ [10, 11]
		// the predicates whose candidates reach refinement, and those
		// that then emit
		refines, hits []extgeom.Predicate
	}{
		{"filtered", 500, nil, nil},
		{"overlapping", 10.5, allPredicates, []extgeom.Predicate{extgeom.Intersects, extgeom.WithinDistance}},
		// 0.3 above the R row: only the ε-widened filter passes these,
		// and the hit comes out of the segment scan.
		{"near", 11.3, []extgeom.Predicate{extgeom.WithinDistance}, []extgeom.Predicate{extgeom.WithinDistance}},
	} {
		var robjs, sobjs []extgeom.Object
		var rows []int
		for i := 0; i < 40; i++ {
			robjs = append(robjs, square(int64(i), float64(i)*25, 10, 1))
			sobjs = append(sobjs, square(int64(1000+i), float64(i)*25+0.5, tc.sy, 1))
			rows = append(rows, i)
		}
		bufs := colsweep.Get()
		defer colsweep.Put(bufs)
		for _, pred := range allPredicates {
			for _, path := range []string{"encoded", "table"} {
				k := tableKernel(NewTileGrid(world, 1, 1), pred, robjs, sobjs)
				rs, ss := rowGroup(k.in.mbrR, rows...), rowGroup(k.in.mbrS, rows...)
				if path == "encoded" {
					rs, ss = groupOf(encode(robjs, k.in.mbrR)), groupOf(encode(sobjs, k.in.mbrS))
					k.in = inputs{}
				}
				// Keep the heuristic from routing this tile to the R-tree
				// path, whose bulk load allocates by design.
				k.fallbackMinEntries = 1 << 30
				out := bufs.Sink(false, false)
				k.Join(0, rs, ss, 0.5, out) // warm the scratch pool
				if allocs := testing.AllocsPerRun(100, func() {
					k.Join(0, rs, ss, 0.5, out)
				}); allocs > 0 {
					t.Errorf("%s/%v/%s: steady-state tile join allocates %.1f objects/op, want 0", tc.name, pred, path, allocs)
				}
				if got, want := k.Stats.Candidates.Load() > 0, slices.Contains(tc.refines, pred); got != want {
					t.Errorf("%s/%v/%s: %d candidates reached refinement, want any: %v", tc.name, pred, path, k.Stats.Candidates.Load(), want)
				}
				if got, want := out.N > 0, slices.Contains(tc.hits, pred); got != want {
					t.Errorf("%s/%v/%s: %d pairs emitted, want any: %v", tc.name, pred, path, out.N, want)
				}
			}
		}
	}
}

// TestTwoLayerKernelUnsortedGroup: the kernel relies on groups arriving
// x-sorted by begin corner, but a caller that hands it rows in any other
// order still gets exactly the nested loop's pairs, on both the sweep
// and the R-tree path, in place and decoded.
func TestTwoLayerKernelUnsortedGroup(t *testing.T) {
	world := geom.Rect{MinX: 0, MinY: 0, MaxX: 30, MaxY: 30}
	rng := rand.New(rand.NewSource(37))
	rs := randObjects(rng, 120, 0, world, 3)
	ss := randObjects(rng, 120, 10_000, world, 3)
	grid := NewTileGrid(world, 1, 1)
	mbrR, _ := validMBRs(rs)
	mbrS, _ := validMBRs(ss)
	// R rows by descending begin corner, so every class bucket arrives
	// reversed; S rows shuffled.
	rrows, srows := rng.Perm(len(rs)), rng.Perm(len(ss))
	slices.SortFunc(rrows, func(a, b int) int { return cmp.Compare(mbrR[b].MinX, mbrR[a].MinX) })
	encR, encS := encode(rs, mbrR), encode(ss, mbrS)
	var rts, sts []tuple.Tuple
	for _, i := range rrows {
		rts = append(rts, encR[i])
	}
	for _, i := range srows {
		sts = append(sts, encS[i])
	}
	bufs := colsweep.Get()
	defer colsweep.Put(bufs)
	for _, pred := range allPredicates {
		const eps = 1.5
		want := bruteForce(rs, ss, pred, eps)
		for _, fallback := range []bool{false, true} {
			k := tableKernel(grid, pred, rs, ss)
			k.forceFallback = fallback
			out := bufs.Sink(true, false)
			k.Join(0, rowGroup(mbrR, rrows...), rowGroup(mbrS, srows...), eps, out)
			pairsEqual(t, fmt.Sprintf("%v fallback=%v in place", pred, fallback), slices.Clone(out.Pairs), want)

			dec := &Kernel{Grid: grid, Pred: pred, forceFallback: fallback}
			out = bufs.Sink(true, false)
			dec.Join(0, groupOf(rts), groupOf(sts), eps, out)
			pairsEqual(t, fmt.Sprintf("%v fallback=%v decoded", pred, fallback), slices.Clone(out.Pairs), want)
		}
	}
}

// TestTwoLayerInPlaceMatchesEncoded is the differential test between
// the two representations: the same Config runs with no engine (the
// kernel reads the inputs in place) and with an explicit local engine
// (every object wire-encoded, shipped through the payload lane and
// decoded per replica, as on a cluster). Pairs, results, checksum,
// replication, per-class bytes and every kernel counter must agree —
// for each predicate, a forced and a cost-model grid, and an ε′ < ε
// re-sweep of the WithinDistance plans.
func TestTwoLayerInPlaceMatchesEncoded(t *testing.T) {
	world := geom.Rect{MinX: 0, MinY: 0, MaxX: 60, MaxY: 60}
	rng := rand.New(rand.NewSource(41))
	rs := randObjects(rng, 500, 0, world, 6)
	ss := randObjects(rng, 400, 10_000, world, 6)
	type run struct {
		pairs      []tuple.Pair
		results    int64
		checksum   uint64
		replR      int64
		replS      int64
		classBytes map[string]int64
		stats      [5]int64
	}
	execute := func(p *Plan, eps float64) run {
		res, err := p.Execute(context.Background(), ExecOptions{Eps: eps, Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		sortPairs(res.Pairs)
		st := &p.Kernel().Stats
		return run{
			res.Pairs, res.Results, res.Checksum, res.ReplicatedR, res.ReplicatedS, p.ClassBytes(),
			[5]int64{st.Tiles.Load(), st.Candidates.Load(), st.Emitted.Load(), st.FallbackTiles.Load(), st.DecodeErrors.Load()},
		}
	}
	for _, pred := range allPredicates {
		for _, tiles := range []int{0, 9} {
			cfg := Config{R: rs, S: ss, Pred: pred, Eps: 2, Tiles: tiles, Workers: 3, Partitions: 8, Collect: true}
			inPlace, err := Prepare(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Engine = dpe.LocalEngine{}
			encoded, err := Prepare(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if inPlace.Grid != encoded.Grid {
				t.Fatalf("%v tiles=%d: grids %+v and %+v", pred, tiles, inPlace.Grid, encoded.Grid)
			}
			epss := []float64{0}
			if pred == extgeom.WithinDistance {
				epss = append(epss, 0.7)
			}
			for _, eps := range epss {
				label := fmt.Sprintf("%v tiles=%d eps'=%v", pred, tiles, eps)
				a, b := execute(inPlace, eps), execute(encoded, eps)
				if len(a.pairs) == 0 {
					t.Fatalf("%s: no pairs; test data too sparse", label)
				}
				pairsEqual(t, label+" vs brute force", a.pairs, bruteForce(rs, ss, pred, cmp.Or(eps, cfg.Eps)))
				pairsEqual(t, label, a.pairs, b.pairs)
				a.pairs, b.pairs = nil, nil
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: in place %+v, encoded %+v", label, a, b)
				}
			}
		}
	}
}

// TestTwoLayerPrepareAllocationBudget: an in-process Prepare allocates
// per object its MBR and its payload-free tuple, per replica its slab
// lanes and assignment log, and the per-tile tables — no per-object
// payload arena and no payload lane. The encoded plan, which has both,
// must not fit the same budget.
func TestTwoLayerPrepareAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race pass")
	}
	const n = 5000
	gen := func(kind string, verts int, seed, idBase int64) []extgeom.Object {
		objs, err := datagen.GeomObjects(
			datagen.GeomSpec{Kind: kind, MinExtent: 0.2, MaxExtent: 1, Verts: verts, ShapeSeed: seed + 1},
			func(emit func(tuple.Tuple)) { datagen.UniformEach(datagen.World(), n, seed, idBase, emit) })
		if err != nil {
			t.Fatal(err)
		}
		return objs
	}
	rs, ss := gen("polygon", 6, 4, 0), gen("polyline", 4, 6, 1<<40)
	wire := 0
	for _, objs := range [][]extgeom.Object{rs, ss} {
		for i := range objs {
			wire += extgeom.ObjectWireSize(&objs[i])
		}
	}
	cfg := Config{R: rs, S: ss, Pred: extgeom.WithinDistance, Eps: 0.5, Workers: 4, Partitions: 32}
	measure := func(cfg Config) (allocated, replicas int64, tiles int) {
		if _, err := Prepare(cfg); err != nil { // warm
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p, err := Prepare(cfg)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		for part := 0; part < p.prep.NumPartitions(); part++ {
			r, s := p.prep.Slabs(part)
			replicas += int64(r.Rows() + s.Rows())
		}
		return int64(m1.TotalAlloc - m0.TotalAlloc), replicas, p.Grid.NumTiles()
	}
	got, replicas, tiles := measure(cfg)
	objects := int64(len(rs) + len(ss))
	perObject := int64(unsafe.Sizeof(geom.Rect{}) + unsafe.Sizeof(tuple.Tuple{}))
	// Per replica: the 24-byte slab row and its 4-byte log entry, twice
	// over for growth and sort scratch. Per tile: the rank → partition
	// table and a cursor per worker and side. The cost model's tallies
	// and the sample are bounded by the sample cap.
	budget := perObject*objects + 2*28*replicas + int64(4+4*2*cfg.Workers)*int64(tiles) + 1<<18
	t.Logf("in place: %d objects, %d replicas, %d tiles: allocated %d B, budget %d B (payload arena would add %d B)",
		objects, replicas, tiles, got, budget, wire)
	if got > budget {
		t.Fatalf("in-place Prepare allocated %d B, over the %d B budget", got, budget)
	}
	cfg.Engine = dpe.LocalEngine{}
	if enc, _, _ := measure(cfg); enc <= budget {
		t.Fatalf("the encoded Prepare allocated %d B, inside the in-place budget of %d B: the budget cannot see a payload arena", enc, budget)
	}
}

// TestTwoLayerKernelCountsPerTile: the kernel counts a tile locally and
// flushes once, so after any number of tiles the shared counters hold
// exactly the sums.
func TestTwoLayerKernelCountsPerTile(t *testing.T) {
	k := &Kernel{Grid: NewTileGrid(geom.Rect{MaxX: 100, MaxY: 100}, 1, 1), Pred: extgeom.WithinDistance}
	rs := groupOf([]tuple.Tuple{squareTuple(1, 10, 10, 1), squareTuple(2, 50, 50, 1)})
	ss := groupOf([]tuple.Tuple{squareTuple(11, 10.2, 11.2, 1), squareTuple(12, 51.2, 51.2, 1), squareTuple(13, 90, 90, 1)})
	bufs := colsweep.Get()
	defer colsweep.Put(bufs)
	out := bufs.Sink(false, false)
	for i := 0; i < 3; i++ {
		k.Join(0, rs, ss, 0.25, out)
	}
	emitted := out.N
	// Per tile: both near pairs are candidates (the MBRs are 0.2 apart
	// on each axis they differ in, inside the 0.25 widening), the one
	// offset on both axes is 0.28 away and fails refinement, and the far
	// S square meets nothing.
	if got := [3]int64{k.Stats.Tiles.Load(), k.Stats.Candidates.Load(), k.Stats.Emitted.Load()}; got != [3]int64{3, 6, 3} || emitted != 3 {
		t.Fatalf("tiles/candidates/emitted = %v with %d emit calls, want [3 6 3] and 3", got, emitted)
	}
}

// TestTwoLayerScratchDropsOversized: a scratch that one huge tile blew
// up is left to the garbage collector, not parked in the pool.
func TestTwoLayerScratchDropsOversized(t *testing.T) {
	small := &tileScratch{verts: make([]geom.Point, 0, 1024)}
	if small.retainedBytes() > maxPooledScratchBytes {
		t.Fatalf("a 1024-vertex scratch counts %d bytes", small.retainedBytes())
	}
	big := &tileScratch{}
	big.byClassR[ClassA] = make([]entry, 0, maxPooledScratchBytes/64)
	big.verts = make([]geom.Point, 0, maxPooledScratchBytes/32)
	if big.retainedBytes() <= maxPooledScratchBytes {
		t.Fatalf("the oversized scratch counts only %d bytes", big.retainedBytes())
	}
	big.release()
	for i := 0; i < 8; i++ {
		if scratchPool.Get().(*tileScratch) == big {
			t.Fatal("an oversized scratch went back into the pool")
		}
	}
}

// FuzzTwoLayerKernelPayload feeds the kernel a fuzzed payload on both
// sides of a tile, next to sound replicas. It must never panic, and it
// must count in DecodeErrors exactly the replicas DecodeObject rejects.
func FuzzTwoLayerKernelPayload(f *testing.F) {
	sound := squareTuple(1, 10, 10, 2)
	f.Add(sound.Payload)
	f.Add(sound.Payload[:len(sound.Payload)-3]) // truncated vertex
	f.Add(sound.Payload[:3])                    // truncated header
	f.Add(append([]byte{7}, sound.Payload[1:]...))
	f.Add([]byte{byte(extgeom.KindPolygon), 0xff, 0xff, 0xff, 0x7f})
	f.Add(extgeom.AppendObject(nil, &extgeom.Object{Kind: extgeom.KindPoint, Verts: make([]geom.Point, 3)}))
	f.Add([]byte{})
	// Non-finite vertices: DecodeObject rejects them, so they count as
	// decode errors and leave the rest of the tile alone.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(extgeom.AppendObject(nil, &extgeom.Object{Kind: extgeom.KindPolyline, Verts: []geom.Point{{X: bad, Y: 1}, {X: 12, Y: 12}}}))
		f.Add(extgeom.AppendObject(nil, &extgeom.Object{Kind: extgeom.KindPolygon, Verts: []geom.Point{{X: 10, Y: 10}, {X: 12, Y: bad}, {X: 11, Y: 13}}}))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		_, err := extgeom.DecodeObject(0, payload)
		wantErrs := int64(0)
		if err != nil {
			wantErrs = 2 // once as an R replica, once as an S replica
		}
		fuzzed := tuple.Tuple{ID: 99, Payload: payload}
		rs := groupOf([]tuple.Tuple{sound, fuzzed})
		ss := groupOf([]tuple.Tuple{squareTuple(2, 11, 11, 2), fuzzed})
		bufs := colsweep.Get()
		defer colsweep.Put(bufs)
		for _, pred := range allPredicates {
			for _, fallback := range []bool{false, true} {
				k := &Kernel{Grid: NewTileGrid(geom.Rect{MaxX: 100, MaxY: 100}, 1, 1), Pred: pred, forceFallback: fallback}
				out := bufs.Sink(true, false)
				k.Join(0, rs, ss, 0.5, out)
				soundPair := slices.Contains(out.Pairs, tuple.Pair{RID: 1, SID: 2})
				if got := k.Stats.DecodeErrors.Load(); got != wantErrs {
					t.Fatalf("%v: DecodeErrors = %d, want %d (decode error: %v)", pred, got, wantErrs, err)
				}
				// (Only a rejected payload is known to leave the rest of
				// the tile alone; one that decodes joins the tile.)
				if err != nil && pred != extgeom.Contains && !soundPair {
					t.Fatalf("%v: the sound overlapping pair was lost beside the rejected payload", pred)
				}
			}
		}
	})
}

// BenchmarkGeoPolyJoin is the geo-poly workload of the system benchmark
// as a go test benchmark: 20K hexagons × 20K 4-vertex polylines, one
// Prepare + Execute per iteration and predicate.
func BenchmarkGeoPolyJoin(b *testing.B) {
	const n = 20000
	gen := func(kind string, verts int, seed, idBase int64) []extgeom.Object {
		objs, err := datagen.GeomObjects(
			datagen.GeomSpec{Kind: kind, MinExtent: 0.2, MaxExtent: 1, Verts: verts, ShapeSeed: seed + 1},
			func(emit func(tuple.Tuple)) { datagen.UniformEach(datagen.World(), n, seed, idBase, emit) })
		if err != nil {
			b.Fatal(err)
		}
		return objs
	}
	rs, ss := gen("polygon", 6, 4, 0), gen("polyline", 4, 6, 1<<40)
	for _, cfg := range []Config{
		{Pred: extgeom.Intersects},
		{Pred: extgeom.WithinDistance, Eps: 0.5},
	} {
		cfg.R, cfg.S, cfg.Workers, cfg.Partitions = rs, ss, 4, 32
		b.Run(cfg.Pred.String(), func(b *testing.B) {
			b.ReportAllocs()
			var results int64
			for i := 0; i < b.N; i++ {
				res, err := Join(cfg)
				if err != nil {
					b.Fatal(err)
				}
				results = res.Results
			}
			b.ReportMetric(float64(results), "pairs")
		})
	}
}
