// Package extjoin extends the ε-distance join to spatial objects with
// extent (polylines and simple polygons) — the paper's first future-work
// item — while reusing the adaptive-replication machinery unchanged.
//
// Construction. Every object is represented by its MBR centre. If
// maxHalfDiag is the largest half-diagonal of any object's MBR across
// both inputs, then d(a, b) <= ε implies
//
//	d(center_a, center_b) <= ε + halfDiag_a + halfDiag_b <= ε + 2·maxHalfDiag =: εe.
//
// The centres are therefore joined with the ordinary adaptive (or
// universal) assignment at the inflated threshold εe — which is correct
// and duplicate-free for every centre pair within εe — and each candidate
// cell refines with the exact object distance at the original ε. Every
// true result pair has centre distance <= εe, so it is examined in
// exactly one cell: the extended join inherits both correctness and the
// duplicate-free property. Centre pairs farther than εe can never be true
// results, so discarding them in the filter step is safe.
//
// The price of extent is an inflated grid (cell side 2εe): the fatter the
// objects relative to ε, the more replication — quantified by the
// xobjects extension experiment.
package extjoin

import (
	"fmt"
	"time"

	"spatialjoin/internal/colpipe"
	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/core"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/tuple"
)

// Config parameterises an extended-object join: the core orchestrator's
// configuration, with Eps the object distance threshold and Bounds the
// centre-space MBR. Policy selects the assignment of centres — LPiB
// (default) or DIFF for adaptive replication, UniR or UniS for
// PBSM-style universal replication of one input.
type Config = core.Config

// Result is the outcome of an extended join.
type Result struct {
	dpe.Metrics
	Pairs        []tuple.Pair
	EffectiveEps float64 // the inflated centre threshold εe
	MaxHalfDiag  float64
}

// Join computes all pairs (r, s) of objects with d(r, s) <= ε: it joins
// the centres on the core orchestrator at εe (which validates it) with
// the exact-distance refinement as the cell kernel.
func Join(rs, ss []extgeom.Object, cfg Config) (*Result, error) {
	for i := range rs {
		if err := rs[i].Validate(); err != nil {
			return nil, fmt.Errorf("extjoin: R[%d]: %w", i, err)
		}
	}
	for i := range ss {
		if err := ss[i].Validate(); err != nil {
			return nil, fmt.Errorf("extjoin: S[%d]: %w", i, err)
		}
	}

	// Centre representation + exact-geometry lookup tables.
	start := time.Now()
	maxHD := 0.0
	for i := range rs {
		maxHD = max(maxHD, rs[i].HalfDiag())
	}
	for i := range ss {
		maxHD = max(maxHD, ss[i].HalfDiag())
	}
	epsE := cfg.Eps + 2*maxHD
	centersR, centersS := centers(rs), centers(ss)
	cfg.Kernel = RefineKernel(lookup(rs), lookup(ss), cfg.Eps)
	cfg.Eps = epsE
	prepTime := time.Since(start)

	out, err := core.Join(centersR, centersS, cfg)
	if err != nil {
		return nil, err
	}
	out.BuildTime += prepTime
	return &Result{
		Metrics:      out.Metrics,
		Pairs:        out.Pairs,
		EffectiveEps: epsE,
		MaxHalfDiag:  maxHD,
	}, nil
}

// RefineKernel filters centre pairs within εe — every R centre probes
// the x-sorted S centres — and refines each candidate with the exact
// object distance at ε.
func RefineKernel(lookupR, lookupS map[int64]*extgeom.Object, eps float64) dpe.Kernel {
	return func(_ int, r, s *colpipe.Group, epsE float64, out *colsweep.Sink) {
		var sel []int32
		for i, id := range r.IDs {
			sel = colsweep.Probe(&s.Cols, r.Xs[i], r.Ys[i], epsE, sel)
			for _, j := range sel {
				if extgeom.WithinDist(lookupR[id], lookupS[s.IDs[j]], eps) {
					out.Add(id, s.IDs[j])
				}
			}
		}
	}
}

// maxObjectWireBytes caps the modelled wire size of one object.
const vertexBytes = 16

// pad is a shared zero buffer backing the size-model payloads of centre
// tuples: the payload content is never read, only its length.
var pad = make([]byte, 1<<20)

// centers converts objects into centre tuples whose payload length models
// the object's serialized size (kind byte + vertices), so the engine's
// shuffle accounting reflects moving real geometries.
func centers(objs []extgeom.Object) []tuple.Tuple {
	out := make([]tuple.Tuple, len(objs))
	for i := range objs {
		sz := 1 + vertexBytes*(len(objs[i].Verts)-1)
		if sz < 0 {
			sz = 0
		}
		if sz > len(pad) {
			sz = len(pad)
		}
		out[i] = tuple.Tuple{
			ID:      objs[i].ID,
			Pt:      objs[i].Center(),
			Payload: pad[:sz],
		}
	}
	return out
}

func lookup(objs []extgeom.Object) map[int64]*extgeom.Object {
	m := make(map[int64]*extgeom.Object, len(objs))
	for i := range objs {
		m[objs[i].ID] = &objs[i]
	}
	return m
}
