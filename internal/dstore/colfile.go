package dstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"spatialjoin/internal/codec"
	"spatialjoin/internal/colsweep"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/tuple"
)

// Columnar dataset file ("colfile"): the colsweep SoA slab layout made
// durable. Points are stored in chunks — per grid partition when the
// file is partitioned, or in fixed-size runs otherwise — as three
// parallel lanes (xs, ys f64; ids i64), little-endian, each chunk
// 8-byte aligned so an mmap of the file yields zero-copy colsweep.Cols
// views. A directory at the tail locates every chunk; header and
// directory carry CRC-32 (IEEE) checksums.
//
// Layout:
//
//	header (88 B, 8-aligned)
//	chunk* : chunkHeader (16 B) | xs | ys | ids [| payLens(pad8) | payBlob(pad8)]
//	directory: dirEntry (32 B) * nChunks | crc u32
const (
	colMagic     = 0x31434A53 // "SJC1" little-endian
	colVersion   = 1
	colHeaderLen = 88
	colChunkHdr  = 16
	colDirEntry  = 32

	colFlagPayloads    = 1 << 0 // chunks carry payload sections
	colFlagPartitioned = 1 << 1 // chunks keyed by grid cell, with halos

	// ChunkKindNative marks a chunk of points whose home cell is the
	// chunk's cell; ChunkKindHalo marks replicas within eps of the cell.
	ChunkKindNative = 0
	ChunkKindHalo   = 1

	maxColChunk = 1 << 26 // points per chunk sanity cap for decoders
)

// ColOptions configures a ColWriter.
type ColOptions struct {
	Eps         float64   // grid epsilon the partitioning was built for (0 if none)
	Res         float64   // grid resolution factor k (0 if none)
	Bounds      geom.Rect // dataset extent; accumulated from chunks when empty
	Payloads    bool      // chunks carry per-point payload sections
	Partitioned bool      // chunks are (cell, kind) grid partitions
}

type colDirRec struct {
	cell   int64
	kind   uint64
	count  uint64
	offset uint64
}

// ColWriter streams chunks into a columnar dataset file without holding
// more than one chunk in memory.
type ColWriter struct {
	f      *os.File
	path   string
	opts   ColOptions
	off    uint64
	count  uint64 // native points written
	bounds geom.Rect
	dir    []colDirRec
	buf    []byte
	closed bool
}

// NewColWriter creates path (truncating any existing file) and writes a
// placeholder header; Close patches the real header and directory in.
func NewColWriter(path string, opts ColOptions) (*ColWriter, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := &ColWriter{
		f:      f,
		path:   path,
		opts:   opts,
		off:    colHeaderLen,
		bounds: geom.EmptyRect(),
	}
	if !opts.Bounds.IsEmpty() {
		w.bounds = opts.Bounds
	}
	if _, err := f.Write(make([]byte, colHeaderLen)); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

func pad8(n int) int { return (8 - n&7) & 7 }

// AppendChunk writes one chunk. kind is ChunkKindNative or
// ChunkKindHalo; cell is the grid cell id, or -1 for unpartitioned
// files. payloads must be nil unless the file was opened with
// Payloads, in which case it must hold one entry per point.
func (w *ColWriter) AppendChunk(cell int64, kind byte, cols *colsweep.Cols, payloads [][]byte) error {
	n := cols.Len()
	if len(cols.Ys) != n || len(cols.IDs) != n {
		return fmt.Errorf("dstore: ragged chunk lanes (%d/%d/%d)", len(cols.Xs), len(cols.Ys), len(cols.IDs))
	}
	if w.opts.Payloads != (payloads != nil) || (payloads != nil && len(payloads) != n) {
		return fmt.Errorf("dstore: payload section mismatch for chunk of %d points", n)
	}
	size := colChunkHdr + 3*8*n
	var blobLen int
	if payloads != nil {
		for _, p := range payloads {
			blobLen += len(p)
		}
		size += 4*n + pad8(4*n) + blobLen + pad8(blobLen)
	}
	if cap(w.buf) < size {
		w.buf = make([]byte, 0, size)
	}
	b := w.buf[:0]
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(cell)))
	b = append(b, kind, 0, 0, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	b = binary.LittleEndian.AppendUint32(b, 0)
	for _, x := range cols.Xs {
		b = codec.AppendF64(b, x)
	}
	for _, y := range cols.Ys {
		b = codec.AppendF64(b, y)
	}
	for _, id := range cols.IDs {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	if payloads != nil {
		for _, p := range payloads {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		}
		b = append(b, make([]byte, pad8(4*n))...)
		for _, p := range payloads {
			b = append(b, p...)
		}
		b = append(b, make([]byte, pad8(blobLen))...)
	}
	if _, err := w.f.Write(b); err != nil {
		return err
	}
	w.buf = b[:0]
	w.dir = append(w.dir, colDirRec{cell: cell, kind: uint64(kind), count: uint64(n), offset: w.off})
	w.off += uint64(len(b))
	if kind == ChunkKindNative {
		w.count += uint64(n)
		if w.opts.Bounds.IsEmpty() {
			for i := 0; i < n; i++ {
				w.bounds = w.bounds.ExtendPoint(geom.Point{X: cols.Xs[i], Y: cols.Ys[i]})
			}
		}
	}
	return nil
}

// Close writes the directory, patches the header, and fsyncs the file.
// A file that fails any of these is removed, as Abort removes it.
func (w *ColWriter) Close() error {
	if w.closed {
		return nil
	}
	if err := w.seal(); err != nil {
		w.Abort()
		return err
	}
	w.closed = true
	if err := w.f.Close(); err != nil {
		os.Remove(w.path)
		return err
	}
	return nil
}

// seal is Close's writes and fsync, leaving the file open.
func (w *ColWriter) seal() error {
	dirOff := w.off
	db := make([]byte, 0, colDirEntry*len(w.dir)+4)
	for _, d := range w.dir {
		db = binary.LittleEndian.AppendUint64(db, uint64(d.cell))
		db = binary.LittleEndian.AppendUint64(db, d.kind)
		db = binary.LittleEndian.AppendUint64(db, d.count)
		db = binary.LittleEndian.AppendUint64(db, d.offset)
	}
	if _, err := w.f.Write(codec.Seal(db)); err != nil {
		return err
	}

	var flags uint16
	if w.opts.Payloads {
		flags |= colFlagPayloads
	}
	if w.opts.Partitioned {
		flags |= colFlagPartitioned
	}
	bounds := w.bounds
	if bounds.IsEmpty() {
		bounds = geom.Rect{}
	}
	hdr := make([]byte, colHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], colMagic)
	binary.LittleEndian.PutUint16(hdr[4:], colVersion)
	binary.LittleEndian.PutUint16(hdr[6:], flags)
	binary.LittleEndian.PutUint64(hdr[8:], w.count)
	binary.LittleEndian.PutUint64(hdr[16:], math.Float64bits(bounds.MinX))
	binary.LittleEndian.PutUint64(hdr[24:], math.Float64bits(bounds.MinY))
	binary.LittleEndian.PutUint64(hdr[32:], math.Float64bits(bounds.MaxX))
	binary.LittleEndian.PutUint64(hdr[40:], math.Float64bits(bounds.MaxY))
	binary.LittleEndian.PutUint64(hdr[48:], math.Float64bits(w.opts.Eps))
	binary.LittleEndian.PutUint64(hdr[56:], math.Float64bits(w.opts.Res))
	binary.LittleEndian.PutUint32(hdr[64:], uint32(len(w.dir)))
	binary.LittleEndian.PutUint64(hdr[72:], dirOff)
	binary.LittleEndian.PutUint32(hdr[80:], crc32.ChecksumIEEE(hdr[:80]))
	if _, err := w.f.WriteAt(hdr, 0); err != nil {
		return err
	}
	return w.f.Sync()
}

// Abort closes and removes a partially written file.
func (w *ColWriter) Abort() {
	if w.closed {
		return
	}
	w.closed = true
	w.f.Close()
	os.Remove(w.path)
}

// tuplesRun is the chunk size of unpartitioned tuple files: large
// enough to amortize chunk headers, small enough that streaming writers
// hold O(run) memory.
const tuplesRun = 1 << 16

// TuplesWriter streams tuples into an unpartitioned colfile in
// fixed-size runs, holding at most one run in memory. It produces the
// same bytes as WriteTuplesFile over the same sequence.
type TuplesWriter struct {
	w    *ColWriter
	cols colsweep.Cols
	pays [][]byte
	n    uint64
}

// NewTuplesWriter creates path (truncating any existing file).
func NewTuplesWriter(path string) (*TuplesWriter, error) {
	w, err := NewColWriter(path, ColOptions{Payloads: true})
	if err != nil {
		return nil, err
	}
	// pays starts non-nil: AppendChunk distinguishes nil (no payload
	// section) from empty, and tuple files always carry the section.
	return &TuplesWriter{w: w, pays: [][]byte{}}, nil
}

// Append buffers one tuple, flushing a chunk at each run boundary.
func (t *TuplesWriter) Append(tp tuple.Tuple) error {
	t.cols.Append(tp.Pt.X, tp.Pt.Y, tp.ID)
	t.pays = append(t.pays, tp.Payload)
	t.n++
	if t.cols.Len() >= tuplesRun {
		return t.flush()
	}
	return nil
}

func (t *TuplesWriter) flush() error {
	if err := t.w.AppendChunk(-1, ChunkKindNative, &t.cols, t.pays); err != nil {
		t.w.Abort()
		return err
	}
	t.cols.Reset()
	t.pays = t.pays[:0]
	return nil
}

// Count returns how many tuples have been appended.
func (t *TuplesWriter) Count() uint64 { return t.n }

// Close flushes the tail run and finalizes the file.
func (t *TuplesWriter) Close() error {
	// An empty file still carries one empty chunk, matching what
	// WriteTuplesFile has always written.
	if t.cols.Len() > 0 || t.n == 0 {
		if err := t.flush(); err != nil {
			return err
		}
	}
	return t.w.Close()
}

// Abort closes and removes a partially written file.
func (t *TuplesWriter) Abort() { t.w.Abort() }

// WriteTuplesFile writes ts as an unpartitioned colfile in fixed-size
// runs, carrying payloads so the registry round-trips exactly.
func WriteTuplesFile(path string, ts []tuple.Tuple) error {
	w, err := NewTuplesWriter(path)
	if err != nil {
		return err
	}
	for _, t := range ts {
		if err := w.Append(t); err != nil {
			return err
		}
	}
	return w.Close()
}

// ColChunkInfo describes one chunk of an open colfile.
type ColChunkInfo struct {
	Cell  int64
	Kind  byte
	Count int
}

// ColReader is a read-only view of a columnar dataset file, backed by
// mmap where available so chunk lanes are served zero-copy.
type ColReader struct {
	data     []byte
	unmap    func() error
	count    uint64
	flags    uint16
	bounds   geom.Rect
	eps, res float64
	dirOff   uint64
	chunks   []ColChunkInfo
	offs     []uint64
}

// OpenColFile maps path and validates its header and directory.
func OpenColFile(path string) (*ColReader, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	r, err := newColReader(data)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	r.unmap = unmap
	return r, nil
}

func newColReader(data []byte) (*ColReader, error) {
	if len(data) < colHeaderLen {
		return nil, fmt.Errorf("dstore: colfile too short (%d bytes)", len(data))
	}
	h := codec.NewReader(data[:colHeaderLen])
	if h.U32() != colMagic {
		return nil, fmt.Errorf("dstore: not a colfile (bad magic)")
	}
	if v := h.U16(); v != colVersion {
		return nil, fmt.Errorf("dstore: colfile version %d unsupported (want %d)", v, colVersion)
	}
	if crc := binary.LittleEndian.Uint32(data[80:]); crc != crc32.ChecksumIEEE(data[:80]) {
		return nil, fmt.Errorf("dstore: colfile header checksum mismatch")
	}
	r := &ColReader{
		data:   data,
		flags:  h.U16(),
		count:  h.U64(),
		bounds: geom.Rect{MinX: h.F64(), MinY: h.F64(), MaxX: h.F64(), MaxY: h.F64()},
		eps:    h.F64(),
		res:    h.F64(),
	}
	nChunks := h.U32()
	h.U32() // pad
	r.dirOff = h.U64()
	dirLen := uint64(colDirEntry)*uint64(nChunks) + 4
	if nChunks > maxColChunk || r.dirOff < colHeaderLen || r.dirOff > uint64(len(data)) || dirLen > uint64(len(data))-r.dirOff {
		return nil, fmt.Errorf("dstore: colfile directory out of range")
	}
	dir, err := codec.Unseal(data[r.dirOff : r.dirOff+dirLen])
	if err != nil {
		return nil, fmt.Errorf("dstore: colfile directory: %w", err)
	}
	d := codec.NewReader(dir)
	r.chunks = make([]ColChunkInfo, nChunks)
	r.offs = make([]uint64, nChunks)
	// Chunks lie in file order without overlap, as ColWriter appends
	// them, so the native counts cannot add up to more points than the
	// file holds.
	end, natives := uint64(colHeaderLen), uint64(0)
	for i := range r.chunks {
		cell, kind, count, off := d.I64(), d.U64(), d.U64(), d.U64()
		if kind > ChunkKindHalo || count > maxColChunk {
			return nil, fmt.Errorf("dstore: colfile chunk %d corrupt (kind %d, count %d)", i, kind, count)
		}
		need, err := r.chunkSize(int(count))
		if err != nil {
			return nil, err
		}
		if off < end || off%8 != 0 || off > r.dirOff || need > r.dirOff-off {
			return nil, fmt.Errorf("dstore: colfile chunk %d out of range", i)
		}
		end = off + need
		hdrCount := binary.LittleEndian.Uint32(data[off+8:])
		if uint64(hdrCount) != count {
			return nil, fmt.Errorf("dstore: colfile chunk %d count mismatch (%d vs %d)", i, hdrCount, count)
		}
		if kind == ChunkKindNative {
			natives += count
		}
		r.chunks[i] = ColChunkInfo{Cell: cell, Kind: byte(kind), Count: int(count)}
		r.offs[i] = off
	}
	if natives != r.count {
		return nil, fmt.Errorf("dstore: colfile header counts %d points, its native chunks %d", r.count, natives)
	}
	return r, nil
}

// DecodeTuples decodes a tuple colfile held in memory, such as a
// dataset shipped between shards. The tuples are copies: blob may be
// reused once it returns.
func DecodeTuples(blob []byte) ([]tuple.Tuple, error) {
	r, err := newColReader(blob)
	if err != nil {
		return nil, err
	}
	return r.Tuples()
}

// chunkSize returns the minimum byte length of a chunk of n points
// (payload blob length excluded; the blob is bounds-checked lazily).
func (r *ColReader) chunkSize(n int) (uint64, error) {
	if n < 0 || n > maxColChunk {
		return 0, fmt.Errorf("dstore: colfile chunk count %d out of range", n)
	}
	size := uint64(colChunkHdr) + 3*8*uint64(n)
	if r.flags&colFlagPayloads != 0 {
		size += uint64(4*n + pad8(4*n))
	}
	return size, nil
}

// NumChunks returns how many chunks the file holds.
func (r *ColReader) NumChunks() int { return len(r.chunks) }

// Info returns the directory entry for chunk i.
func (r *ColReader) Info(i int) ColChunkInfo { return r.chunks[i] }

// Count returns the number of native points in the file.
func (r *ColReader) Count() uint64 { return r.count }

// Bounds returns the dataset extent recorded in the header.
func (r *ColReader) Bounds() geom.Rect { return r.bounds }

// Eps returns the grid epsilon the file was partitioned for (0 if
// unpartitioned).
func (r *ColReader) Eps() float64 { return r.eps }

// Res returns the grid resolution factor recorded in the header.
func (r *ColReader) Res() float64 { return r.res }

// Partitioned reports whether chunks are (cell, kind) grid partitions.
func (r *ColReader) Partitioned() bool { return r.flags&colFlagPartitioned != 0 }

// HasPayloads reports whether chunks carry payload sections.
func (r *ColReader) HasPayloads() bool { return r.flags&colFlagPayloads != 0 }

// Chunk returns the SoA lanes of chunk i as colsweep.Cols. On
// little-endian hosts the slices alias the underlying mapping
// (zero-copy); the caller must not modify them and must not use them
// after Close. On other hosts the lanes are decoded copies.
func (r *ColReader) Chunk(i int) colsweep.Cols {
	info := r.chunks[i]
	n := info.Count
	base := r.offs[i] + colChunkHdr
	return colsweep.Cols{
		Xs:  f64Lane(r.data[base:], n),
		Ys:  f64Lane(r.data[base+uint64(8*n):], n),
		IDs: i64Lane(r.data[base+uint64(16*n):], n),
	}
}

// Payloads returns chunk i's payload section (nil when the file carries
// none). Returned slices alias the mapping.
func (r *ColReader) Payloads(i int) ([][]byte, error) {
	if r.flags&colFlagPayloads == 0 {
		return nil, nil
	}
	info := r.chunks[i]
	n := info.Count
	lensOff := r.offs[i] + colChunkHdr + uint64(24*n)
	lens := r.data[lensOff : lensOff+uint64(4*n)]
	blobOff := lensOff + uint64(4*n+pad8(4*n))
	out := make([][]byte, n)
	limit := r.dirOff
	if i+1 < len(r.offs) {
		limit = r.offs[i+1]
	}
	for j := 0; j < n; j++ {
		l := uint64(binary.LittleEndian.Uint32(lens[4*j:]))
		if blobOff+l > limit {
			return nil, fmt.Errorf("dstore: colfile chunk %d payload blob out of range", i)
		}
		if l > 0 {
			out[j] = r.data[blobOff : blobOff+l]
		}
		blobOff += l
	}
	return out, nil
}

// Tuples materializes every native point (payloads copied), for
// loading a dataset back into the in-memory registry.
func (r *ColReader) Tuples() ([]tuple.Tuple, error) {
	out := make([]tuple.Tuple, 0, r.count)
	for i := range r.chunks {
		if r.chunks[i].Kind != ChunkKindNative {
			continue
		}
		cols := r.Chunk(i)
		pays, err := r.Payloads(i)
		if err != nil {
			return nil, err
		}
		for j := 0; j < cols.Len(); j++ {
			t := tuple.Tuple{ID: cols.IDs[j], Pt: geom.Point{X: cols.Xs[j], Y: cols.Ys[j]}}
			if pays != nil && len(pays[j]) > 0 {
				t.Payload = append([]byte(nil), pays[j]...)
			}
			out = append(out, t)
		}
	}
	return out, nil
}

// Close releases the mapping. Lanes returned by Chunk become invalid.
func (r *ColReader) Close() error {
	r.data = nil
	if r.unmap != nil {
		u := r.unmap
		r.unmap = nil
		return u()
	}
	return nil
}
