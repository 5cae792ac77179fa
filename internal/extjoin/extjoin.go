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

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/core"
	"spatialjoin/internal/dpe"
	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/replicate"
	"spatialjoin/internal/sample"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/tuple"
)

// Strategy selects how centres are assigned to cells.
type Strategy uint8

const (
	// Adaptive uses agreement-based replication (LPiB policy).
	Adaptive Strategy = iota
	// UniversalR replicates every R centre, PBSM-style.
	UniversalR
	// UniversalS replicates every S centre.
	UniversalS
)

// String names the strategy.
func (s Strategy) String() string {
	return [...]string{"adaptive", "UNI(R)", "UNI(S)"}[s]
}

// Config parameterises an extended-object join.
type Config struct {
	Eps            float64           // object distance threshold (required, > 0)
	Strategy       Strategy          // Adaptive (default), UniversalR, UniversalS
	Policy         agreements.Policy // agreement policy for Adaptive; default LPiB
	SampleFraction float64           // default 0.03
	Seed           int64
	Workers        int
	Partitions     int
	Collect        bool
	Bounds         *geom.Rect // centre-space MBR; computed when nil
	NetBandwidth   float64
}

// Result is the outcome of an extended join.
type Result struct {
	dpe.Metrics
	Pairs        []tuple.Pair
	EffectiveEps float64 // the inflated centre threshold εe
	MaxHalfDiag  float64
}

// Join computes all pairs (r, s) of objects with d(r, s) <= ε.
func Join(rs, ss []extgeom.Object, cfg Config) (*Result, error) {
	if cfg.Eps <= 0 {
		return nil, fmt.Errorf("extjoin: Eps must be positive, got %v", cfg.Eps)
	}
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
	if cfg.SampleFraction == 0 {
		cfg.SampleFraction = sample.DefaultFraction
	}
	workers, partitions := core.Parallelism(cfg.Workers, cfg.Partitions)

	// Centre representation + exact-geometry lookup tables.
	start := time.Now()
	maxHD := 0.0
	for i := range rs {
		if hd := rs[i].HalfDiag(); hd > maxHD {
			maxHD = hd
		}
	}
	for i := range ss {
		if hd := ss[i].HalfDiag(); hd > maxHD {
			maxHD = hd
		}
	}
	epsE := cfg.Eps + 2*maxHD
	centersR := centers(rs)
	centersS := centers(ss)
	lookupR := lookup(rs)
	lookupS := lookup(ss)
	prepTime := time.Since(start)

	bounds := core.DataBounds(cfg.Bounds, centersR, centersS)
	g := grid.New(bounds, epsE, 2)

	// Sample centre statistics and build the assignment.
	start = time.Now()
	st := grid.NewStats(g)
	st.AddAll(tuple.R, sample.Bernoulli(centersR, cfg.SampleFraction, cfg.Seed))
	st.AddAll(tuple.S, sample.Bernoulli(centersS, cfg.SampleFraction, cfg.Seed+1))
	sampleTime := time.Since(start)

	start = time.Now()
	var assignR, assignS dpe.Assign
	switch cfg.Strategy {
	case Adaptive:
		gr := agreements.Build(st, cfg.Policy)
		assign := func(p geom.Point, set tuple.Set, dst []int) []int {
			return replicate.Adaptive(gr, p, set, dst)
		}
		assignR, assignS = assign, assign
	case UniversalR, UniversalS:
		replR := cfg.Strategy == UniversalR
		assignR = func(p geom.Point, set tuple.Set, dst []int) []int {
			return replicate.Universal(g, p, replR, dst)
		}
		assignS = func(p geom.Point, set tuple.Set, dst []int) []int {
			return replicate.Universal(g, p, !replR, dst)
		}
	default:
		return nil, fmt.Errorf("extjoin: unknown strategy %d", cfg.Strategy)
	}
	buildTime := time.Since(start)

	out, err := dpe.Run(dpe.Spec{
		R: centersR, S: centersS,
		Eps:     epsE,
		AssignR: assignR, AssignS: assignS,
		Cells:   g.NumCells(),
		Part:    dpe.HashPartitioner{N: partitions},
		Workers: workers,
		Kernel:  refineKernel(lookupR, lookupS, cfg.Eps),
		Collect: cfg.Collect,

		NetBandwidth: cfg.NetBandwidth,
	})
	if err != nil {
		return nil, err
	}
	out.SampleTime = sampleTime
	out.BuildTime = prepTime + buildTime
	return &Result{
		Metrics:      out.Metrics,
		Pairs:        out.Pairs,
		EffectiveEps: epsE,
		MaxHalfDiag:  maxHD,
	}, nil
}

// refineKernel filters centre pairs with a plane sweep at εe and refines
// each candidate with the exact object distance at ε.
func refineKernel(lookupR, lookupS map[int64]*extgeom.Object, eps float64) dpe.Kernel {
	eps2 := eps * eps
	return func(_ int, rs, ss []tuple.Tuple, epsE float64, emit sweep.Emit) {
		sweep.PlaneSweep(rs, ss, epsE, func(r, s tuple.Tuple) {
			or := lookupR[r.ID]
			os := lookupS[s.ID]
			if extgeom.SqDist(or, os) <= eps2 {
				emit(r, s)
			}
		})
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
