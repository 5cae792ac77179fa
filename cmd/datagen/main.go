// Command datagen generates the evaluation data sets as text files.
//
// Usage:
//
//	datagen -kind gaussian -n 200000 -seed 101 -out s1.txt
//	datagen -kind tiger -n 10000000 -seed 303 -stream-out r1.col
//	datagen -kind uniform -geom polygon -n 50000 -max-size 2 -out parks.txt
//
// Kinds: uniform, gaussian (the paper's 30-cluster synthetic), tiger
// (TIGER-Hydrography-like skew), osm (OSM-Parks-like skew). The paper
// codenames map to: S1 = gaussian seed 101, S2 = gaussian seed 202,
// R1 = tiger seed 303, R2 = osm seed 404.
//
// With -geom rect|polyline|polygon the points become object centers and
// the output is a geometry set for the two-layer non-point engine:
// -out writes the WKT-flavoured text format /v1/geodatasets ingests,
// -stream-out writes columnar tuples whose payloads carry the geometry
// wire encoding. -min-size/-max-size bound each object's MBR diameter,
// -verts sets the polyline/polygon vertex count.
//
// With -stream-out the points are streamed straight into the durable
// store's columnar format (a .col file loadable by sjoind's -data-dir
// machinery) without ever materializing the whole data set in memory,
// so sets larger than RAM can be generated. The streaming generators
// make exactly the same rng draws as the in-memory
// ones: the same (kind, n, seed) yields identical points either way —
// and with -geom, identical objects in identical draw order.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/dstore"
	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/textio"
	"spatialjoin/internal/tuple"
)

func main() {
	var (
		kind      = flag.String("kind", "gaussian", "distribution: uniform, gaussian, tiger, osm")
		n         = flag.Int("n", 200_000, "number of points")
		seed      = flag.Int64("seed", 1, "generator seed")
		out       = flag.String("out", "", "text output file")
		streamOut = flag.String("stream-out", "", "columnar output file, written streaming (O(1) memory)")
		payload   = flag.Int("payload", 0, "attach a payload of this many bytes per point")
		geomKind  = flag.String("geom", "", "generate geometry objects instead of points: rect, polyline, polygon")
		minSize   = flag.Float64("min-size", 0, "minimum object MBR diameter (default max-size/10)")
		maxSize   = flag.Float64("max-size", 1, "maximum object MBR diameter")
		verts     = flag.Int("verts", 6, "polyline/polygon vertex count")
	)
	flag.Parse()
	if (*out == "") == (*streamOut == "") {
		fail("exactly one of -out and -stream-out is required")
	}
	if *n <= 0 {
		fail("-n must be positive")
	}

	w := datagen.World()
	gen, err := generator(strings.ToLower(*kind), w, *n, *seed)
	if err != nil {
		fail("%v", err)
	}
	if *geomKind != "" {
		if *payload > 0 {
			fail("-payload does not combine with -geom (the geometry is the payload)")
		}
		runGeom(datagen.GeomSpec{
			Kind:      strings.ToLower(*geomKind),
			MinExtent: *minSize, MaxExtent: *maxSize,
			Verts: *verts, ShapeSeed: *seed + 1,
		}, gen, *out, *streamOut, *kind)
		return
	}
	var pad []byte
	if *payload > 0 {
		pad = []byte(strings.Repeat("x", *payload))
	}

	if *streamOut != "" {
		cw, err := dstore.NewTuplesWriter(*streamOut)
		if err != nil {
			fail("%v", err)
		}
		var werr error
		gen(func(t tuple.Tuple) {
			if werr != nil {
				return
			}
			t.Payload = pad
			werr = cw.Append(t)
		})
		if werr == nil {
			werr = cw.Close()
		}
		if werr != nil {
			cw.Abort()
			fail("%v", werr)
		}
		fmt.Printf("wrote %d %s points to %s (columnar)\n", cw.Count(), *kind, *streamOut)
		return
	}

	var ts []tuple.Tuple
	gen(func(t tuple.Tuple) {
		t.Payload = pad
		ts = append(ts, t)
	})
	if err := textio.WriteFile(*out, ts); err != nil {
		fail("%v", err)
	}
	fmt.Printf("wrote %d %s points to %s\n", len(ts), *kind, *out)
}

// runGeom is the -geom path: the point generator supplies object
// centers and the shape stream attaches geometry, either as WKT-ish
// text (-out) or streamed columnar tuples whose payloads carry the
// geometry wire encoding (-stream-out). Both consume the one
// GeomObjectsEach stream, so their draw order is identical.
func runGeom(spec datagen.GeomSpec, centers func(func(tuple.Tuple)), out, streamOut, kind string) {
	if streamOut != "" {
		// An empty center stream checks the spec before the file exists.
		if _, err := datagen.GeomObjects(spec, func(func(tuple.Tuple)) {}); err != nil {
			fail("%v", err)
		}
		cw, err := dstore.NewTuplesWriter(streamOut)
		if err != nil {
			fail("%v", err)
		}
		var werr error
		err = datagen.GeomObjectsEach(spec, centers, func(o extgeom.Object) {
			if werr != nil {
				return
			}
			werr = cw.Append(tuple.Tuple{
				ID: o.ID, Pt: o.Bounds().Center(), Payload: extgeom.AppendObject(nil, &o),
			})
		})
		if err == nil {
			err = werr
		}
		if err == nil {
			err = cw.Close()
		}
		if err != nil {
			cw.Abort()
			fail("%v", err)
		}
		fmt.Printf("wrote %d %s %s objects to %s (columnar)\n", cw.Count(), kind, spec.Kind, streamOut)
		return
	}
	objs, err := datagen.GeomObjects(spec, centers)
	if err != nil {
		fail("%v", err)
	}
	if err := textio.WriteGeomsFile(out, objs); err != nil {
		fail("%v", err)
	}
	fmt.Printf("wrote %d %s %s objects to %s\n", len(objs), kind, spec.Kind, out)
}

// generator returns the streaming form of the requested distribution.
func generator(kind string, w geom.Rect, n int, seed int64) (func(func(tuple.Tuple)), error) {
	switch kind {
	case "uniform":
		return func(emit func(tuple.Tuple)) { datagen.UniformEach(w, n, seed, 0, emit) }, nil
	case "gaussian":
		return func(emit func(tuple.Tuple)) { datagen.GaussianClustersEach(w, n, 30, 0.1, 0.8, seed, 0, emit) }, nil
	case "tiger":
		return func(emit func(tuple.Tuple)) { datagen.TigerLikeEach(w, n, seed, 0, emit) }, nil
	case "osm":
		return func(emit func(tuple.Tuple)) { datagen.OSMLikeEach(w, n, seed, 0, emit) }, nil
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
}

// fail reports one "datagen: "-prefixed line, whether or not the
// message comes from package datagen, and exits.
func fail(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "datagen: "+strings.TrimPrefix(msg, "datagen: "))
	os.Exit(2)
}
