package agreements

import (
	"spatialjoin/internal/grid"
	"spatialjoin/internal/tuple"
)

// Word layout of a resolved quartet. Pair k is the k-th unordered pair of
// positions (i < j) in the order (BL,BR), (BL,TL), (BL,TR), (BR,TL),
// (BR,TR), (TL,TR); edge 2k is i->j and edge 2k+1 is j->i.
//
//	bits  0–5   pair types, bit k set when pair k has type S
//	bits  6–17  marks, bit 6+e set when directed edge e is marked
//	bits 18–29  locks, bit 18+e set when directed edge e is locked
//
// The low 18 bits are exactly the 3-byte wire record EncodedSize counts.
const (
	markShift = 6
	lockShift = 18
	typeMask  = 1<<6 - 1
	edgeMask  = 1<<12 - 1
)

// pairBit[i][j] is the bit of the pair type of positions i and j, and
// edgeBit[i][j] the offset of the directed edge i->j within the mark and
// lock fields.
var pairBit, edgeBit = func() (pb, eb [grid.NumPos][grid.NumPos]uint8) {
	k := uint8(0)
	for i := grid.Pos(0); i < grid.NumPos; i++ {
		for j := i + 1; j < grid.NumPos; j++ {
			pb[i][j], pb[j][i] = k, k
			eb[i][j], eb[j][i] = 2*k, 2*k+1
			k++
		}
	}
	return pb, eb
}()

// wordType returns the agreement type of positions a and b in word w.
func wordType(w uint32, a, b grid.Pos) tuple.Set { return tuple.Set(w >> pairBit[a][b] & 1) }

// wordMarked reports whether the directed edge a->b is marked in word w.
func wordMarked(w uint32, a, b grid.Pos) bool { return w>>(markShift+edgeBit[a][b])&1 != 0 }

// wordLocked reports whether the directed edge a->b is locked in word w.
func wordLocked(w uint32, a, b grid.Pos) bool { return w>>(lockShift+edgeBit[a][b])&1 != 0 }

// Slot is the compiled assignment of a point of one set whose native cell
// sits at position i of a quartet: which cells of the quartet Algorithms
// 2–4 send it to, with only the distance tests left to the point. Side
// index n names the side-adjacent cell i.SideAdjacent()[n]: n = 0 is the
// cell across i's west or east border, n = 1 across its south or north one.
//
//	bit 0, 1  MeDuPAr (Algorithm 3, lines 2–4): side cell n is real, the
//	          pair has the point's type and the edge i->n is unmarked
//	bit 2     MeDuPAr lines 5–11: the diagonal cell, if the point is
//	          within ε of the reference point
//	bit 3     MeDuPAr line 10: the diagonal cell regardless of distance
//	bits 4–5  side 0's code, bits 6–7 side 1's: SupAr's target
//	          (Algorithm 4) when side cell n's marked edge into i excluded
//	          the point's partners, or crossMarked
type Slot uint8

const (
	slotSide0 Slot = 1 << iota
	slotSide1
	slotDiagNear
	slotDiagAlways
	codeShift = 4
)

// Target is a SupAr target: the cell the excluded partners of side cell n
// travel to, and the point must follow them to.
type Target uint8

const (
	// TargetNone: no supplementary area of side cell n holds the point.
	TargetNone Target = iota
	// TargetSide: the other side-adjacent cell.
	TargetSide
	// TargetDiag: the diagonal cell.
	TargetDiag
	// crossMarked is no SupAr target. It records that side cell n is real
	// and shares the point's type, but the edge i->n is marked: the point
	// still crosses that border from a plain replication strip, where
	// marks do not apply. A SupAr target needs the pair to have the other
	// type, so the two never share a code.
	crossMarked
)

// slotShift is the bit offset of the slot of (i, set) in a table.
func slotShift(i grid.Pos, set tuple.Set) uint {
	return 8 * (2*uint(i) + uint(set))
}

// Side reports whether MeDuPAr sends the point to side cell n.
func (sl Slot) Side(n int) bool { return sl&(slotSide0<<n) != 0 }

// Diagonal reports whether MeDuPAr sends the point to the diagonal cell
// when it is within ε of the reference point (near), or in any case
// (always).
func (sl Slot) Diagonal() (near, always bool) {
	return sl&slotDiagNear != 0, sl&slotDiagAlways != 0
}

// SupAr returns the SupAr target of side cell n.
func (sl Slot) SupAr(n int) Target {
	if c := Target(sl >> (codeShift + 2*n) & 3); c != crossMarked {
		return c
	}
	return TargetNone
}

// AnySupAr reports whether either side cell has a SupAr target: a code
// of 1 or 2, whose two bits differ.
func (sl Slot) AnySupAr() bool {
	c := sl >> codeShift
	return (c^c>>1)&0b0101 != 0
}

// Crosses reports whether a point in a plain replication strip along side
// cell n's border crosses into it: the cell is real and the pair has the
// point's type, marked or not.
func (sl Slot) Crosses(n int) bool {
	return sl.Side(n) || Target(sl>>(codeShift+2*n)&3) == crossMarked
}

// tableCache memoises compile over one build. A graph holds few distinct
// quartet configurations — pair types, marks and real cells; locks do not
// affect assignment — so most quartets take a cached table: a sampled
// 100K-quartet graph has about 75 distinct marked ones. The cache is
// direct-mapped; a collision only recompiles.
type tableCache struct {
	keys [1 << 10]uint32 // key + 1, so that zero marks an empty entry
	tabs [1 << 10]uint64
}

// compile returns the assignment table of a quartet from its word w and
// the mask of its real cells (bit p set when the cell at position p is
// real): the slot of every (native position, set), each at slotShift.
func (c *tableCache) compile(w uint32, real uint8) uint64 {
	key := w&(1<<lockShift-1) | uint32(real)<<lockShift
	h := key * 0x9e3779b1 >> 22
	if c.keys[h] != key+1 {
		c.keys[h], c.tabs[h] = key+1, compileSlots(w, real)
	}
	return c.tabs[h]
}

// realMask returns the real-cell mask of a quartet's cells.
func realMask(cells [grid.NumPos]int) uint8 {
	var m uint8
	for p, c := range cells {
		if c != grid.NoCell {
			m |= 1 << p
		}
	}
	return m
}

// compileSlots compiles Algorithms 3 and 4 slot by slot, leaving out the
// points' distance tests.
func compileSlots(w uint32, real uint8) uint64 {
	isReal := func(p grid.Pos) bool { return real>>p&1 != 0 }
	// open reports whether the points of set t cross the unmarked edge
	// a->b into a real cell.
	open := func(a, b grid.Pos, t tuple.Set) bool {
		return isReal(b) && wordType(w, a, b) == t && !wordMarked(w, a, b)
	}
	var tab uint64
	for i := grid.Pos(0); i < grid.NumPos; i++ {
		adj, l := i.SideAdjacent(), i.Diagonal()
		for set := tuple.R; set <= tuple.S; set++ {
			var sl Slot
			markedSide := false
			for n, j := range adj {
				switch {
				case open(i, j, set):
					sl |= slotSide0 << n
				case isReal(j) && wordType(w, i, j) == set:
					sl |= Slot(crossMarked) << (codeShift + 2*n)
				}
				if wordType(w, i, j) == set && wordMarked(w, i, j) {
					markedSide = true
				}
			}
			// A marked same-type side edge excluded the point from a side
			// cell, so it travels to the diagonal cell even when farther
			// than ε from the reference point: its excluded pairs are
			// recovered there.
			if open(i, l, set) {
				sl |= slotDiagNear
				if markedSide {
					sl |= slotDiagAlways
				}
			}
			for n, j := range adj {
				// The edge j->i has the other type and is marked: j's points
				// that could pair with the point were excluded from i's
				// cell. They travel to whichever third cell both reach by
				// unmarked edges.
				if !isReal(j) || wordType(w, j, i) == set || !wordMarked(w, j, i) {
					continue
				}
				k := adj[1-n]
				var t Target
				switch {
				case open(i, k, set) && open(j, k, set.Other()):
					t = TargetSide
				case open(i, l, set) && open(j, l, set.Other()):
					t = TargetDiag
				}
				sl |= Slot(t) << (codeShift + 2*n)
			}
			tab |= uint64(sl) << slotShift(i, set)
		}
	}
	return tab
}
