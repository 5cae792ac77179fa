// Package replicate implements the point-to-partition assignment rules of
// every join algorithm in the library:
//
//   - Adaptive: the paper's Algorithms 2 (area dispatch), 3 (MeDuPAr) and
//     4 (SupAr) over a resolved graph of agreements — correct and
//     duplicate-free by construction.
//   - AdaptiveSimple: the same agreements without marking, locking or
//     supplementary areas — correct but duplicate-producing; the variant
//     measured against a post-join deduplication step in Table 6.
//   - Universal: PBSM-style replication of one entire data set to every
//     cell within ε (used by UNI(R), UNI(S) and the ε-grid baseline).
//
// Every function appends the point's native cell first, followed by the
// cells it is replicated to, so callers can count replication as
// len(result) - 1.
package replicate

import (
	"spatialjoin/internal/agreements"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/tuple"
)

// Universal assigns p under PBSM-style universal replication: the native
// cell always; when replicated is true (p belongs to the globally
// replicated data set), additionally every other cell whose MINDIST from
// p is at most ε. Works for any grid resolution including the ε-grid.
func Universal(g *grid.Grid, p geom.Point, replicated bool, dst []int) []int {
	cx, cy := g.Locate(p)
	dst = append(dst, g.CellID(cx, cy))
	if replicated {
		dst = g.ReplicationTargets(p, dst)
	}
	return dst
}

// Adaptive assigns p of the given set under the paper's adaptive
// replication (Algorithm 2). The first id is the native cell; subsequent
// ids are replication targets, deduplicated. It reads one compiled slot
// (agreements.Slot) per quartet it visits; the slot holds every decision
// of Algorithms 3 and 4 that does not depend on p's position, so only the
// distance tests run here.
func Adaptive(gr *agreements.Graph, p geom.Point, set tuple.Set, dst []int) []int {
	g := gr.Grid
	cx, cy, area := g.Classify(p)
	dst = append(dst, g.CellID(cx, cy))

	switch area.Kind {
	case grid.AreaInterior:
		// No replication area: the point stays in its native cell only.
		return dst

	case grid.AreaCorner:
		// Merged duplicate-prone area of the quartet at this corner:
		// MeDuPAr for that quartet, then SupAr for the two nearest
		// neighbouring quartets (Algorithm 2 lines 5-11).
		gx, gy, pos := g.CornerQuartet(cx, cy, area.Corner)
		sl := gr.Slot(gx, gy, pos, set)
		dst = meDuPAr(g, p, cx, cy, gx, gy, pos, sl, dst)
		// Deviation from the paper's Algorithm 2 pseudocode (documented in
		// DESIGN.md): a point in the merged duplicate-prone area of q can
		// simultaneously lie in a supplementary area of ANOTHER triad of
		// the same quartet (Def. 4.10 admits it: within ε of a side
		// neighbour whose marked edge excluded partners from this cell,
		// farther than ε from the third cell, within 2ε of the reference
		// point). The pseudocode only probes q' and q'', which loses such
		// pairs; running SupAr on q as well restores them.
		dst = supAr(g, p, cx, cy, gx, gy, pos, sl, dst)
		q1x, q1y, pos1, q2x, q2y, pos2 := g.AdjacentCornerQuartets(cx, cy, area.Corner)
		dst = supAr(g, p, cx, cy, q1x, q1y, pos1, gr.Slot(q1x, q1y, pos1, set), dst)
		dst = supAr(g, p, cx, cy, q2x, q2y, pos2, gr.Slot(q2x, q2y, pos2, set), dst)

	default: // grid.AreaStrip
		// Plain replication area: replicate across the side when the
		// agreement type matches, marked or not, then SupAr for the two
		// quartets at the side's endpoints (Algorithm 2 lines 12-19).
		q1x, q1y, pos1, q2x, q2y, pos2 := g.StripQuartets(p, cx, cy, area.Side)
		sl1 := gr.Slot(q1x, q1y, pos1, set)
		// The cell across a west or east side is pos1's side cell 0, the
		// one across a south or north side its side cell 1.
		if n := int(area.Side) / 2; sl1.Crosses(n) {
			dst = append(dst, cellAt(g, cx, cy, pos1, pos1.SideAdjacent()[n]))
		}
		dst = supAr(g, p, cx, cy, q1x, q1y, pos1, sl1, dst)
		dst = supAr(g, p, cx, cy, q2x, q2y, pos2, gr.Slot(q2x, q2y, pos2, set), dst)
	}
	return dedupeKeepFirst(dst)
}

// cellAt returns the id of the cell at position j of a quartet whose
// position i holds cell (cx, cy), or grid.NoCell outside the grid.
func cellAt(g *grid.Grid, cx, cy int, i, j grid.Pos) int {
	ix, iy := grid.PosCoord(i)
	jx, jy := grid.PosCoord(j)
	return g.CellID(cx+jx-ix, cy+jy-iy)
}

// meDuPAr is Algorithm 3: assignment of a point located in the merged
// duplicate-prone area of the quartet at corner (gx, gy), where the
// point's native cell (cx, cy) occupies position i and sl is its slot.
// The slot already holds lines 2-4 (side-adjacent cells via unmarked
// same-type edges) and the edge tests of lines 5-11 (the cell sharing
// only the reference point with i); only the ε test of line 6 is left.
func meDuPAr(g *grid.Grid, p geom.Point, cx, cy, gx, gy int, i grid.Pos, sl agreements.Slot, dst []int) []int {
	for n, j := range i.SideAdjacent() {
		if sl.Side(n) {
			dst = append(dst, cellAt(g, cx, cy, i, j))
		}
	}
	if near, always := sl.Diagonal(); always || near && p.WithinDist(g.RefPoint(gx, gy), g.Eps) {
		dst = append(dst, cellAt(g, cx, cy, i, i.Diagonal()))
	}
	return dst
}

// supAr is Algorithm 4: assignment of a point that may lie in a
// supplementary area of the quartet at corner (gx, gy), where the point's
// native cell (cx, cy) occupies position i and sl is its slot. A
// supplementary area exists opposite a marked opposite-type edge e_ji:
// the points that edge excludes from replication into i's cell travel to
// a third cell of the quartet, and p — which can form pairs with them —
// must follow them there. The slot holds lines 4-8 per side cell j (the
// third cell, if any); the geometry of line 3 is left.
func supAr(g *grid.Grid, p geom.Point, cx, cy, gx, gy int, i grid.Pos, sl agreements.Slot, dst []int) []int {
	// Most slots have no target: Algorithm 1 leaves most quartets
	// unmarked, making this the common exit.
	if !sl.AnySupAr() {
		return dst
	}
	// Line 3's first clause is independent of the neighbour: p must be
	// within 2ε of the quartet's reference point for any supplementary
	// area of the quartet to contain it.
	if !p.WithinDist(g.RefPoint(gx, gy), 2*g.Eps) {
		return dst
	}
	adj := i.SideAdjacent()
	for n, j := range adj {
		t := sl.SupAr(n)
		if t == agreements.TargetNone {
			continue
		}
		// Line 3: p must also be near cell j.
		ix, iy := grid.PosCoord(i)
		jx, jy := grid.PosCoord(j)
		if !g.CellRect(cx+jx-ix, cy+jy-iy).WithinMinDist(p, g.Eps) {
			continue
		}
		to := adj[1-n] // the other side-adjacent cell
		if t == agreements.TargetDiag {
			to = i.Diagonal() // the cell sharing only the reference point
		}
		dst = append(dst, cellAt(g, cx, cy, i, to))
	}
	return dst
}

// AdaptiveSimple assigns p under agreement-based replication without the
// duplicate-free machinery: agreements decide which set crosses each
// border, but no edge is treated as marked and no supplementary
// replication happens. The assignment is correct (Corollary 4.6) but
// produces duplicate join results in quartets with mixed agreement types
// (Lemma 4.8); it exists as the baseline for the deduplication ablation
// (Table 6). It reads only the pair types of the quartets it visits.
func AdaptiveSimple(gr *agreements.Graph, p geom.Point, set tuple.Set, dst []int) []int {
	g := gr.Grid
	cx, cy, area := g.Classify(p)
	dst = append(dst, g.CellID(cx, cy))

	switch area.Kind {
	case grid.AreaInterior:
		return dst

	case grid.AreaCorner:
		gx, gy, pos := g.CornerQuartet(cx, cy, area.Corner)
		for _, j := range pos.SideAdjacent() {
			c := cellAt(g, cx, cy, pos, j)
			if c == grid.NoCell || gr.Type(gx, gy, pos, j) != set {
				continue
			}
			if jx, jy := g.CellCoords(c); g.CellRect(jx, jy).WithinMinDist(p, g.Eps) {
				dst = append(dst, c)
			}
		}
		l := pos.Diagonal()
		if c := cellAt(g, cx, cy, pos, l); c != grid.NoCell && gr.Type(gx, gy, pos, l) == set && p.WithinDist(g.RefPoint(gx, gy), g.Eps) {
			dst = append(dst, c)
		}

	default: // grid.AreaStrip
		q1x, q1y, pos1, _, _, _ := g.StripQuartets(p, cx, cy, area.Side)
		j := pos1.SideAdjacent()[area.Side/2] // the cell across the side, as in Adaptive
		if c := cellAt(g, cx, cy, pos1, j); c != grid.NoCell && gr.Type(q1x, q1y, pos1, j) == set {
			dst = append(dst, c)
		}
	}
	return dst
}

// dedupeKeepFirst removes duplicate ids preserving first occurrence. The
// slices involved hold at most four entries, so quadratic scanning wins
// over any map-based approach.
func dedupeKeepFirst(ids []int) []int {
	out := ids[:0]
	for _, id := range ids {
		seen := false
		for _, o := range out {
			if o == id {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, id)
		}
	}
	return out
}
