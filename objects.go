package spatialjoin

import (
	"spatialjoin/internal/agreements"
	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/extjoin"
)

// Object is a spatial object with extent: a point, polyline or simple
// polygon. Build instances with NewPointObject, NewPolyline and
// NewPolygon.
type Object = extgeom.Object

// NewPointObject builds a degenerate single-point object.
func NewPointObject(id int64, p Point) Object { return extgeom.NewPoint(id, p) }

// NewPolyline builds an open-chain object from its vertices (>= 2).
func NewPolyline(id int64, verts []Point) Object { return extgeom.NewPolyline(id, verts) }

// NewPolygon builds a simple-polygon object from its ring (>= 3 vertices;
// the last vertex connects back to the first implicitly). The polygon's
// interior counts as part of the object for distance purposes.
func NewPolygon(id int64, ring []Point) Object { return extgeom.NewPolygon(id, ring) }

// ObjectDist returns the exact distance between two objects: zero when
// they intersect or one contains the other.
func ObjectDist(a, b *Object) float64 { return extgeom.Dist(a, b) }

// ObjectReport is the outcome of an extended-object join.
type ObjectReport struct {
	*Report
	// EffectiveEps is the inflated centre-distance threshold
	// ε + 2·maxHalfDiag the grid was built for.
	EffectiveEps float64
	// MaxHalfDiag is the largest MBR half-diagonal across both inputs.
	MaxHalfDiag float64
}

// JoinObjects computes every pair of objects within Eps of each other —
// the paper's future-work extension to polylines and polygons. The
// adaptive algorithms assign objects by their MBR centres at the inflated
// threshold EffectiveEps and refine candidates with exact geometry
// distances, which preserves both correctness and the duplicate-free
// property (see internal/extjoin for the argument). Only the adaptive and
// PBSM-universal strategies apply; other Options.Algorithm values are
// mapped to their closest extended counterpart. The refine step has no
// wire description, so a remote Options.Engine rejects the join.
func JoinObjects(rs, ss []Object, opt Options) (*ObjectReport, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	root := opt.traceRoot()
	defer root.End()
	cfg := opt.config()
	switch opt.Algorithm {
	case AdaptiveDIFF:
		cfg.Policy = agreements.DIFF
	case PBSMUniR, PBSMEpsGrid:
		cfg.Policy = agreements.UniR
	case PBSMUniS:
		cfg.Policy = agreements.UniS
	}
	res, err := extjoin.Join(rs, ss, cfg)
	if err != nil {
		return nil, err
	}
	return &ObjectReport{
		Report:       report(opt.Algorithm, res.Metrics, res.Pairs),
		EffectiveEps: res.EffectiveEps,
		MaxHalfDiag:  res.MaxHalfDiag,
	}, nil
}
