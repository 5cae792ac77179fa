package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/tuple"
)

// Geometry generators for the non-point join engine: every point
// distribution in this package doubles as a center distribution, and a
// shape stream turns each center into a rectangle, polyline or simple
// polygon whose extent is drawn from [MinExtent, MaxExtent]. Shape
// draws come from a dedicated rng seeded from ShapeSeed, consumed in
// emission order — so the streaming (Each) and slice forms, and the
// text and columnar outputs built on them, see identical objects in
// identical order.

// GeomSpec describes one synthetic geometry set.
type GeomSpec struct {
	// Kind is the shape: "rect", "polyline" or "polygon".
	Kind string
	// MinExtent and MaxExtent bound the object's MBR diameter; each
	// object's extent is drawn uniformly in between. Both must be finite.
	MinExtent, MaxExtent float64
	// Verts is the vertex budget for polylines and polygons (ignored for
	// rects): polylines get exactly Verts vertices, polygons Verts-gon
	// star shapes. Clamped to at least 2 (polyline) / 3 (polygon).
	Verts int
	// ShapeSeed seeds the shape rng, independent of the center seed.
	ShapeSeed int64
}

func (s GeomSpec) withDefaults() (GeomSpec, error) {
	switch s.Kind {
	case "rect", "polyline", "polygon":
	default:
		return s, fmt.Errorf("datagen: unknown geometry kind %q (rect, polyline, polygon)", s.Kind)
	}
	if math.IsNaN(s.MinExtent) || math.IsInf(s.MinExtent, 0) || math.IsNaN(s.MaxExtent) || math.IsInf(s.MaxExtent, 0) {
		return s, fmt.Errorf("datagen: object extents must be finite, got [%v, %v]", s.MinExtent, s.MaxExtent)
	}
	if s.MaxExtent <= 0 {
		s.MaxExtent = 1
	}
	if s.MinExtent <= 0 || s.MinExtent > s.MaxExtent {
		s.MinExtent = s.MaxExtent / 10
	}
	minVerts := 2
	if s.Kind == "polygon" {
		minVerts = 3
	}
	if s.Verts < minVerts {
		s.Verts = max(minVerts, 6)
	}
	return s, nil
}

// GeomObjects collects GeomObjectsEach into a slice.
func GeomObjects(spec GeomSpec, centers func(emit func(tuple.Tuple))) ([]extgeom.Object, error) {
	var out []extgeom.Object
	err := GeomObjectsEach(spec, centers, func(o extgeom.Object) { out = append(out, o) })
	return out, err
}

// GeomObjectsEach streams one geometry object per center tuple: the
// object inherits the tuple's id, and its shape parameters are drawn
// from the spec's shape rng in emission order.
func GeomObjectsEach(spec GeomSpec, centers func(emit func(tuple.Tuple)), emit func(extgeom.Object)) error {
	spec, err := spec.withDefaults()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(spec.ShapeSeed))
	shape := shapeFunc(spec)
	centers(func(t tuple.Tuple) {
		ext := spec.MinExtent + rng.Float64()*(spec.MaxExtent-spec.MinExtent)
		emit(shape(rng, t.ID, t.Pt, ext))
	})
	return nil
}

// shapeFunc returns the per-center shape constructor for the spec.
func shapeFunc(spec GeomSpec) func(rng *rand.Rand, id int64, c geom.Point, ext float64) extgeom.Object {
	switch spec.Kind {
	case "rect":
		return func(rng *rand.Rand, id int64, c geom.Point, ext float64) extgeom.Object {
			// Aspect in [1/3, 3]: w·h fit inside the ext×ext budget.
			aspect := math.Exp((rng.Float64()*2 - 1) * math.Ln2 * 1.5)
			w := ext * math.Min(1, aspect) / 2
			h := ext * math.Min(1, 1/aspect) / 2
			return extgeom.NewPolygon(id, []geom.Point{
				{X: c.X - w, Y: c.Y - h}, {X: c.X + w, Y: c.Y - h},
				{X: c.X + w, Y: c.Y + h}, {X: c.X - w, Y: c.Y + h},
			})
		}
	case "polyline":
		return func(rng *rand.Rand, id int64, c geom.Point, ext float64) extgeom.Object {
			// A jittered random walk across the extent: the polyline
			// drifts from one side of its MBR budget to the other, like a
			// road segment or river reach.
			verts := make([]geom.Point, spec.Verts)
			dir := rng.Float64() * 2 * math.Pi
			dx, dy := math.Cos(dir), math.Sin(dir)
			for i := range verts {
				f := float64(i)/float64(spec.Verts-1) - 0.5
				verts[i] = geom.Point{
					X: c.X + f*ext*dx + rng.NormFloat64()*ext/8,
					Y: c.Y + f*ext*dy + rng.NormFloat64()*ext/8,
				}
			}
			return extgeom.NewPolyline(id, verts)
		}
	default: // "polygon"
		return func(rng *rand.Rand, id int64, c geom.Point, ext float64) extgeom.Object {
			// Star-shaped about the center: sorted angles with jittered
			// radii always yield a simple (non-self-intersecting) ring.
			angles := make([]float64, spec.Verts)
			for i := range angles {
				angles[i] = rng.Float64() * 2 * math.Pi
			}
			slices.Sort(angles)
			verts := make([]geom.Point, spec.Verts)
			for i, a := range angles {
				r := ext / 2 * (0.4 + 0.6*rng.Float64())
				verts[i] = geom.Point{X: c.X + r*math.Cos(a), Y: c.Y + r*math.Sin(a)}
			}
			return extgeom.NewPolygon(id, verts)
		}
	}
}
