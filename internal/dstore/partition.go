package dstore

import (
	"context"
	"fmt"

	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/tuple"
)

// WritePartitioned writes ts as a grid-partitioned colfile for distance
// threshold eps and resolution res (cell side res·eps): one native
// chunk per non-empty cell, plus one halo chunk holding the replicas
// within eps of the cell (the universal MINDIST <= ε rule). Both chunk
// kinds are written x-sorted, so JoinFiles can merge the S side of a
// cell linearly and feed the sweep kernel without sorting at join time.
//
// Joining the file at any threshold <= eps stays correct: the halo of a
// cell for a smaller threshold is a subset of the stored one.
func WritePartitioned(path string, ts []tuple.Tuple, eps, res float64, bounds geom.Rect) error {
	if res <= 0 {
		res = 2 // smallest resolution that still supports agreement-based replication
	}
	if bounds.IsEmpty() {
		bounds = geom.EmptyRect()
		for _, t := range ts {
			bounds = bounds.ExtendPoint(t.Pt)
		}
	}
	if bounds.IsEmpty() {
		return fmt.Errorf("dstore: cannot partition an empty dataset without bounds")
	}
	if err := grid.Check(bounds, eps, res); err != nil {
		return fmt.Errorf("dstore: partitioning at eps %v: %w", eps, err)
	}
	g := grid.New(bounds, eps, res)
	native := make([][]int32, g.NumCells())
	halo := make([][]int32, g.NumCells())
	var targets []int
	for i, t := range ts {
		cx, cy := g.Locate(t.Pt)
		cell := g.CellID(cx, cy)
		native[cell] = append(native[cell], int32(i))
		targets = g.ReplicationTargets(t.Pt, targets[:0])
		for _, c := range targets {
			halo[c] = append(halo[c], int32(i))
		}
	}

	w, err := NewColWriter(path, ColOptions{Eps: eps, Res: res, Bounds: bounds, Partitioned: true})
	if err != nil {
		return err
	}
	b := colsweep.Get()
	defer colsweep.Put(b)
	var cols colsweep.Cols
	appendGroup := func(cell int64, kind byte, idx []int32) error {
		if len(idx) == 0 {
			return nil
		}
		cols.Reset()
		for _, i := range idx {
			t := &ts[i]
			cols.Append(t.Pt.X, t.Pt.Y, t.ID)
		}
		cols.SortByX(b)
		return w.AppendChunk(cell, kind, &cols, nil)
	}
	for cell := range native {
		if err := appendGroup(int64(cell), ChunkKindNative, native[cell]); err != nil {
			w.Abort()
			return err
		}
		if err := appendGroup(int64(cell), ChunkKindHalo, halo[cell]); err != nil {
			w.Abort()
			return err
		}
	}
	return w.Close()
}

// cellChunks indexes a partitioned reader's directory by (cell, kind).
type cellChunks struct {
	native map[int64]int // cell -> chunk index
	halo   map[int64]int
}

func indexChunks(r *ColReader) cellChunks {
	cc := cellChunks{native: make(map[int64]int), halo: make(map[int64]int)}
	for i := 0; i < r.NumChunks(); i++ {
		info := r.Info(i)
		if info.Kind == ChunkKindNative {
			cc.native[info.Cell] = i
		} else {
			cc.halo[info.Cell] = i
		}
	}
	return cc
}

// JoinFiles computes the ε-join of two partitioned colfiles built over
// the same grid with JoinFilesInto, passing the pairs to emit in
// batches when emit is non-nil. It returns the number of pairs.
func JoinFiles(r, s *ColReader, eps float64, emit colsweep.EmitBatch) (int64, error) {
	b := colsweep.Get()
	defer colsweep.Put(b)
	out := b.Sink(false, false)
	if emit != nil {
		out = b.Batch(emit, false)
	}
	err := JoinFilesInto(context.Background(), r, s, eps, out)
	out.Flush()
	return out.N, err
}

// JoinFilesInto computes the ε-join of two partitioned colfiles built
// over the same grid into out, streaming one partition pair at a time:
// every R-native cell is swept with the columnar kernel against that
// cell's S native chunk and, separately, its S halo chunk. Every
// qualifying (r, s) pair is delivered exactly once — r is native in
// exactly one cell, and every s within eps of it lies in exactly one of
// that cell's native or halo chunk by the MINDIST rule. Nothing is
// copied: chunk lanes are mmap views swept in place. The caller owns
// flushing out. A cancelled ctx stops the join before the next R native
// chunk and returns ctx's error.
//
// eps must be positive and at most the threshold the files were
// partitioned for.
func JoinFilesInto(ctx context.Context, r, s *ColReader, eps float64, out *colsweep.Sink) error {
	if !r.Partitioned() || !s.Partitioned() {
		return fmt.Errorf("dstore: JoinFiles needs partitioned colfiles")
	}
	if eps <= 0 || eps > r.Eps() || eps > s.Eps() {
		return fmt.Errorf("dstore: join eps %v outside (0, %v]", eps, min(r.Eps(), s.Eps()))
	}
	if r.Eps() != s.Eps() || r.Res() != s.Res() || r.Bounds() != s.Bounds() {
		return fmt.Errorf("dstore: colfiles partitioned over different grids")
	}
	sIdx := indexChunks(s)
	for i := 0; i < r.NumChunks(); i++ {
		info := r.Info(i)
		if info.Kind != ChunkKindNative {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		rCols := r.Chunk(i)
		if sn, ok := sIdx.native[info.Cell]; ok {
			sCols := s.Chunk(sn)
			colsweep.SweepSorted(&rCols, &sCols, eps, out)
		}
		if sh, ok := sIdx.halo[info.Cell]; ok {
			sCols := s.Chunk(sh)
			colsweep.SweepSorted(&rCols, &sCols, eps, out)
		}
	}
	return nil
}
