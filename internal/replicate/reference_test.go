package replicate

import (
	"spatialjoin/internal/agreements"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/tuple"
)

// The functions below are the reference the compiled assignment is
// checked against: Algorithms 2–4 walking each visited quartet's
// Subgraph, as the graph of agreements stored them before it kept only
// packed words and compiled slots. They read the subgraphs through
// Graph.Quartet and must not be optimised: their value is that they follow
// the paper's pseudocode line by line.

// refAdaptive is Adaptive over subgraphs.
func refAdaptive(gr *agreements.Graph, p geom.Point, set tuple.Set, dst []int) []int {
	g := gr.Grid
	cx, cy, area := g.Classify(p)
	dst = append(dst, g.CellID(cx, cy))

	switch area.Kind {
	case grid.AreaInterior:
		return dst

	case grid.AreaCorner:
		gx, gy, pos := g.CornerQuartet(cx, cy, area.Corner)
		sub := gr.Quartet(gx, gy)
		t, uniform := sub.UniformType()
		switch {
		case uniform && t != set:
			// All borders agree on the opposite set: p crosses nowhere.
		case uniform:
			for _, j := range pos.SideAdjacent() {
				if sub.Cells[j] != grid.NoCell {
					dst = append(dst, sub.Cells[j])
				}
			}
			if l := pos.Diagonal(); sub.Cells[l] != grid.NoCell && p.WithinDist(sub.Ref, g.Eps) {
				dst = append(dst, sub.Cells[l])
			}
		default:
			dst = refMeDuPAr(&sub, g, p, set, pos, dst)
			if sub.AnyMarked() {
				dst = refSupAr(&sub, g, p, set, pos, dst)
			}
		}
		q1x, q1y, pos1, q2x, q2y, pos2 := g.AdjacentCornerQuartets(cx, cy, area.Corner)
		if s1 := gr.Quartet(q1x, q1y); s1.AnyMarked() {
			dst = refSupAr(&s1, g, p, set, pos1, dst)
		}
		if s2 := gr.Quartet(q2x, q2y); s2.AnyMarked() {
			dst = refSupAr(&s2, g, p, set, pos2, dst)
		}

	default: // grid.AreaStrip
		q1x, q1y, pos1, q2x, q2y, pos2 := g.StripQuartets(p, cx, cy, area.Side)
		s1 := gr.Quartet(q1x, q1y)
		if j, ok := grid.PosAcross(pos1, area.Side); ok {
			if s1.Cells[j] != grid.NoCell && s1.Type(pos1, j) == set {
				dst = append(dst, s1.Cells[j])
			}
		}
		if s1.AnyMarked() {
			dst = refSupAr(&s1, g, p, set, pos1, dst)
		}
		if s2 := gr.Quartet(q2x, q2y); s2.AnyMarked() {
			dst = refSupAr(&s2, g, p, set, pos2, dst)
		}
	}
	return dedupeKeepFirst(dst)
}

// refMeDuPAr is Algorithm 3 over the subgraph sub, with the point's
// native cell at position i.
func refMeDuPAr(sub *agreements.Subgraph, g *grid.Grid, p geom.Point, set tuple.Set, i grid.Pos, dst []int) []int {
	adj := i.SideAdjacent()
	// Lines 2-4: side-adjacent cells via unmarked same-type edges.
	for _, j := range adj {
		if sub.Cells[j] == grid.NoCell {
			continue
		}
		if sub.Type(i, j) == set && !sub.Marked(i, j) {
			dst = append(dst, sub.Cells[j])
		}
	}
	// Lines 5-11: the cell sharing only the reference point with i.
	l := i.Diagonal()
	if sub.Cells[l] != grid.NoCell && sub.Type(i, l) == set && !sub.Marked(i, l) {
		if p.WithinDist(sub.Ref, g.Eps) {
			dst = append(dst, sub.Cells[l])
		} else {
			for _, j := range adj {
				if sub.Type(i, j) == set && sub.Marked(i, j) {
					dst = append(dst, sub.Cells[l])
					break
				}
			}
		}
	}
	return dst
}

// refSupAr is Algorithm 4 over the subgraph sub, with the point's native
// cell at position i.
func refSupAr(sub *agreements.Subgraph, g *grid.Grid, p geom.Point, set tuple.Set, i grid.Pos, dst []int) []int {
	if !p.WithinDist(sub.Ref, 2*g.Eps) {
		return dst
	}
	adj := i.SideAdjacent()
	for n, j := range adj {
		if sub.Cells[j] == grid.NoCell {
			continue
		}
		// Line 4: the edge from j into i is marked with the opposite type.
		if sub.Type(j, i) == set || !sub.Marked(j, i) {
			continue
		}
		// Line 3: p must also be near cell j.
		jx, jy := g.CellCoords(sub.Cells[j])
		if !g.CellRect(jx, jy).WithinMinDist(p, g.Eps) {
			continue
		}
		k := adj[1-n]
		l := i.Diagonal()
		// Lines 5-8.
		switch {
		case sub.Cells[k] != grid.NoCell &&
			sub.Type(i, k) == set && !sub.Marked(i, k) &&
			sub.Type(j, k) != set && !sub.Marked(j, k):
			dst = append(dst, sub.Cells[k])
		case sub.Cells[l] != grid.NoCell &&
			sub.Type(i, l) == set && !sub.Marked(i, l) &&
			sub.Type(j, l) != set && !sub.Marked(j, l):
			dst = append(dst, sub.Cells[l])
		}
	}
	return dst
}

// refAdaptiveSimple is AdaptiveSimple over subgraphs.
func refAdaptiveSimple(gr *agreements.Graph, p geom.Point, set tuple.Set, dst []int) []int {
	g := gr.Grid
	cx, cy, area := g.Classify(p)
	dst = append(dst, g.CellID(cx, cy))

	switch area.Kind {
	case grid.AreaInterior:
		return dst

	case grid.AreaCorner:
		gx, gy, pos := g.CornerQuartet(cx, cy, area.Corner)
		sub := gr.Quartet(gx, gy)
		for _, j := range pos.SideAdjacent() {
			if sub.Cells[j] == grid.NoCell || sub.Type(pos, j) != set {
				continue
			}
			jx, jy := g.CellCoords(sub.Cells[j])
			if g.CellRect(jx, jy).WithinMinDist(p, g.Eps) {
				dst = append(dst, sub.Cells[j])
			}
		}
		l := pos.Diagonal()
		if sub.Cells[l] != grid.NoCell && sub.Type(pos, l) == set && p.WithinDist(sub.Ref, g.Eps) {
			dst = append(dst, sub.Cells[l])
		}

	default: // grid.AreaStrip
		q1x, q1y, pos1, _, _, _ := g.StripQuartets(p, cx, cy, area.Side)
		sub := gr.Quartet(q1x, q1y)
		if j, ok := grid.PosAcross(pos1, area.Side); ok {
			if sub.Cells[j] != grid.NoCell && sub.Type(pos1, j) == set {
				dst = append(dst, sub.Cells[j])
			}
		}
	}
	return dst
}
