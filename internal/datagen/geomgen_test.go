package datagen

import (
	"math"
	"testing"

	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/tuple"
)

func TestGeomObjects(t *testing.T) {
	w := World()
	centers := func(emit func(tuple.Tuple)) { UniformEach(w, 500, 7, 100, emit) }
	for _, kind := range []string{"rect", "polyline", "polygon"} {
		spec := GeomSpec{Kind: kind, MinExtent: 0.5, MaxExtent: 3, Verts: 5, ShapeSeed: 8}
		objs, err := GeomObjects(spec, centers)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(objs) != 500 {
			t.Fatalf("%s: %d objects", kind, len(objs))
		}
		for i, o := range objs {
			if o.ID != 100+int64(i) {
				t.Fatalf("%s: object %d has id %d (center ids must carry over)", kind, i, o.ID)
			}
			if err := o.Validate(); err != nil {
				t.Fatalf("%s: object %d invalid: %v", kind, i, err)
			}
			b := o.Bounds()
			if d := max(b.Width(), b.Height()); d > spec.MaxExtent*1.0001 {
				// Rect and polygon extents stay inside the budget;
				// polylines may overshoot via vertex jitter, but not wildly.
				if kind != "polyline" || d > 2*spec.MaxExtent {
					t.Fatalf("%s: object %d extent %v exceeds budget %v", kind, i, d, spec.MaxExtent)
				}
			}
			switch kind {
			case "rect":
				if o.Kind != extgeom.KindPolygon || len(o.Verts) != 4 {
					t.Fatalf("rect: object %d is %v with %d verts", i, o.Kind, len(o.Verts))
				}
			case "polyline":
				if o.Kind != extgeom.KindPolyline || len(o.Verts) != 5 {
					t.Fatalf("polyline: object %d is %v with %d verts", i, o.Kind, len(o.Verts))
				}
			case "polygon":
				if o.Kind != extgeom.KindPolygon || len(o.Verts) != 5 {
					t.Fatalf("polygon: object %d is %v with %d verts", i, o.Kind, len(o.Verts))
				}
			}
		}

		// Deterministic: a second run draws the identical objects.
		again, err := GeomObjects(spec, centers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range objs {
			if objs[i].Kind != again[i].Kind || len(objs[i].Verts) != len(again[i].Verts) {
				t.Fatalf("%s: object %d shape differs across runs", kind, i)
			}
			for j := range objs[i].Verts {
				if objs[i].Verts[j] != again[i].Verts[j] {
					t.Fatalf("%s: object %d vertex %d differs across runs", kind, i, j)
				}
			}
		}
	}
}

func TestGeomObjectsStreamParity(t *testing.T) {
	// The streaming form must see the objects of the slice form in the
	// same order — the contract that makes -out and -stream-out
	// byte-equivalent in cmd/datagen.
	w := World()
	centers := func(emit func(tuple.Tuple)) { GaussianClustersEach(w, 300, 10, 0.1, 0.5, 11, 0, emit) }
	spec := GeomSpec{Kind: "polygon", MaxExtent: 2, Verts: 7, ShapeSeed: 12}
	sliceForm, err := GeomObjects(spec, centers)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	err = GeomObjectsEach(spec, centers, func(o extgeom.Object) {
		if i >= len(sliceForm) {
			t.Fatalf("stream emitted more than %d objects", len(sliceForm))
		}
		want := sliceForm[i]
		if o.ID != want.ID || o.Kind != want.Kind || len(o.Verts) != len(want.Verts) {
			t.Fatalf("object %d diverged between stream and slice", i)
		}
		for j := range o.Verts {
			if o.Verts[j] != want.Verts[j] {
				t.Fatalf("object %d vertex %d diverged", i, j)
			}
		}
		i++
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(sliceForm) {
		t.Fatalf("stream emitted %d objects, slice form %d", i, len(sliceForm))
	}
}

func TestGeomSpecValidation(t *testing.T) {
	if _, err := GeomObjects(GeomSpec{Kind: "blob"}, func(func(tuple.Tuple)) {}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// Degenerate extents fall back to defaults rather than erroring.
	objs, err := GeomObjects(GeomSpec{Kind: "rect", MinExtent: -1, MaxExtent: 0},
		func(emit func(tuple.Tuple)) { UniformEach(World(), 10, 1, 0, emit) })
	if err != nil || len(objs) != 10 {
		t.Fatalf("defaults: %v, %d objects", err, len(objs))
	}
}

// TestGeomSpecRejectsNonFiniteExtents: a NaN or infinite extent is an
// error, not a set of NaN-vertex objects.
func TestGeomSpecRejectsNonFiniteExtents(t *testing.T) {
	centers := func(emit func(tuple.Tuple)) { UniformEach(World(), 10, 1, 0, emit) }
	for _, ext := range [][2]float64{{0, math.NaN()}, {0, math.Inf(1)}, {0, math.Inf(-1)}, {math.NaN(), 2}, {math.Inf(1), 2}} {
		spec := GeomSpec{Kind: "polygon", MinExtent: ext[0], MaxExtent: ext[1]}
		if objs, err := GeomObjects(spec, centers); err == nil {
			t.Errorf("extents %v: %d objects and no error", ext, len(objs))
		}
	}
}
