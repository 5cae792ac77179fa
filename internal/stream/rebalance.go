package stream

import (
	"cmp"
	"slices"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/replicate"
	"spatialjoin/internal/tuple"
)

// Canonical pair directions: every unordered pair of adjacent cells is
// owned by exactly one cell, the one from which the neighbour lies east,
// north, north-east, or north-west. The rebalancer visits pairs in
// (owner, slot) order and the checkpoint stores one type per slot.
var canonDirs = [4]grid.Dir{grid.DirE, grid.DirN, grid.DirNE, grid.DirNW}

func canonSlot(d grid.Dir) int {
	return slices.Index(canonDirs[:], d)
}

// rebalanceLocked is the agreement drift scan. It visits every cell whose
// histogram changed since the last scan, re-evaluates the policy for each
// of its adjacent cell pairs against the exact live statistics, and for
// every pair whose decision flipped commits the new type: the subgraphs
// containing the pair are rebuilt (Graph.SetPairType re-runs Algorithm 1's
// marking/locking from the types alone) and only the replicas of the
// rebuilt quartets' member cells are migrated. The grid, slabs of
// unaffected cells, and all other subgraphs are untouched.
//
// Flips are decided before any is applied: committing a flip does not
// change the statistics, so the desired types are independent of
// application order and one scan converges in a single pass. The pairs
// are examined, and their flips applied, in canonical pair order: the
// final graph is order-independent, but the count of replica copies
// moved through intermediate states is not — a deterministic order makes
// rebalance work reproducible.
func (e *Engine) rebalanceLocked() {
	sp := e.cfg.Tracer.Start(0, obs.SpanRebalance)
	sp.SetInt("dirty_cells", int64(len(e.dirty)))
	defer sp.End()
	e.c.RebalanceRuns++
	if len(e.dirty) == 0 {
		return
	}
	// Canonical key cell*4 + slot of every pair with a dirty endpoint,
	// so each unordered pair is examined once even when both are dirty.
	keys := e.pairKeys[:0]
	for ci := range e.dirty {
		cx, cy := e.g.CellCoords(ci)
		for dir := grid.Dir(0); dir < grid.NumDirs; dir++ {
			cj := e.g.Neighbor(cx, cy, dir)
			if cj == grid.NoCell {
				continue
			}
			if slot := canonSlot(dir); slot >= 0 {
				keys = append(keys, ci*4+slot)
			} else {
				keys = append(keys, cj*4+canonSlot(dir.Opposite()))
			}
		}
	}
	clear(e.dirty)
	slices.Sort(keys)
	keys = slices.Compact(keys)
	e.pairKeys = keys
	type flipRec struct {
		ci   int
		dir  grid.Dir
		want tuple.Set
	}
	var flips []flipRec
	for _, key := range keys {
		cc, cd := key/4, canonDirs[key%4]
		ccx, ccy := e.g.CellCoords(cc)
		nb := e.g.Neighbor(ccx, ccy, cd)
		if want := agreements.TypeForPair(e.stats, cc, nb, cd, e.cfg.Policy); want != e.graph.PairType(ccx, ccy, cd) {
			flips = append(flips, flipRec{ci: cc, dir: cd, want: want})
		}
	}
	sp.SetInt("flips", int64(len(flips)))
	for _, f := range flips {
		e.flipLocked(f.ci, f.dir, f.want)
	}
}

// flipLocked commits one pair flip: rebuild the subgraphs containing the
// pair, then re-derive the assignment of every point native to a rebuilt
// quartet's member cell — the only points whose replication consults the
// rebuilt subgraphs — and move the changed replica copies between slabs.
// A cell's native points are those of its slabs whose first assigned
// cell it is; they are collected before any slab changes and migrated in
// id order, so a flip's slab work does not depend on map or slab order.
//
// Migration is silent (no deltas): both the old and the new graph are
// consistent, so the qualifying pair set is unchanged (Corollary 4.6);
// only the cell in which each pair is co-located may move.
func (e *Engine) flipLocked(ci int, dir grid.Dir, want tuple.Set) {
	cx, cy := e.g.CellCoords(ci)
	qs := e.graph.SetPairType(cx, cy, dir, want)
	e.c.AgreementFlips++
	affected := map[int]struct{}{}
	for _, q := range qs {
		for _, c := range e.g.QuartetCells(q[0], q[1]) {
			if c != grid.NoCell {
				affected[c] = struct{}{}
			}
		}
	}
	var own [2][]*entry
	for c := range affected {
		for set := tuple.R; set <= tuple.S; set++ {
			e.cells[c][set].each(func(id int64) {
				if en := e.live[set][id]; int(en.cells[0]) == c {
					own[set] = append(own[set], en)
				}
			})
		}
	}
	for set, ens := range own {
		slices.SortFunc(ens, func(a, b *entry) int { return cmp.Compare(a.t.ID, b.t.ID) })
		for _, en := range ens {
			e.migrateLocked(tuple.Set(set), en)
		}
	}
}

// migrateLocked recomputes one live point's assignment under the current
// graph and applies the difference to the slabs without emitting deltas.
// The native cell (Locate of the point) never changes; only dedicated
// replica targets can.
func (e *Engine) migrateLocked(set tuple.Set, en *entry) {
	newCells := replicate.Adaptive(e.graph, en.t.Pt, set, e.scratch[:0])
	e.scratch = newCells
	moved := 0
	for _, oc := range en.cells {
		if !slices.Contains(newCells, int(oc)) {
			cs := &e.cells[oc]
			cs[set].remove(en.t.ID, en.t.Pt)
			e.compactSlab(&cs[set], set, int(oc))
			moved++
		}
	}
	for _, nc := range newCells {
		if !slices.Contains(en.cells, int32(nc)) {
			e.cells[nc][set].insert(en.t.ID, en.t.Pt)
			e.compactSlab(&e.cells[nc][set], set, nc)
			moved++
		}
	}
	if moved == 0 {
		return
	}
	e.c.Migrations += int64(moved)
	e.c.Replicas += int64(len(newCells) - len(en.cells))
	en.cells = en.cells[:0]
	for _, c := range newCells {
		en.cells = append(en.cells, int32(c))
	}
}

// compactSlab recompacts one cell's slab once its dirty part crossed
// the threshold, under a compaction span, so streams can attribute pause
// time to slab maintenance.
func (e *Engine) compactSlab(s *slab, set tuple.Set, cell int) {
	if !s.needsCompaction() {
		return
	}
	sp := e.cfg.Tracer.Start(0, obs.SpanCompact)
	sp.SetInt("cell", int64(cell)).SetInt("set", int64(set))
	s.compact()
	e.c.SlabRebuilds++
	sp.End()
}
