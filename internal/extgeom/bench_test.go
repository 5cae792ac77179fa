package extgeom_test

import (
	"testing"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/tuple"
)

// BenchmarkEvalWithin times the exact WithinDistance predicate alone on
// the candidates of a geo-poly-shaped join: hexagons × 4-vertex
// polylines, uniform centres, every pair whose ε-widened MBRs overlap.
func BenchmarkEvalWithin(b *testing.B) {
	const n, eps = 4000, 0.5
	world := datagen.World()
	world.MaxX, world.MaxY = world.MaxX/2, world.MaxY/2 // the benchmark's density at a fifth of its size
	gen := func(kind string, verts int, seed, idBase int64) []extgeom.Object {
		objs, err := datagen.GeomObjects(
			datagen.GeomSpec{Kind: kind, MinExtent: 0.2, MaxExtent: 1, Verts: verts, ShapeSeed: seed + 1},
			func(emit func(tuple.Tuple)) { datagen.UniformEach(world, n, seed, idBase, emit) })
		if err != nil {
			b.Fatal(err)
		}
		return objs
	}
	rs, ss := gen("polygon", 6, 4, 0), gen("polyline", 4, 6, 1<<40)
	var cands [][2]*extgeom.Object
	for i := range rs {
		near := rs[i].Bounds().Expand(eps)
		for j := range ss {
			if near.Intersects(ss[j].Bounds()) {
				cands = append(cands, [2]*extgeom.Object{&rs[i], &ss[j]})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		c := cands[i%len(cands)]
		if extgeom.Eval(extgeom.WithinDistance, c[0], c[1], eps) {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hit-share")
}
