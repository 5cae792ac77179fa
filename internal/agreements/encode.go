package agreements

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"spatialjoin/internal/codec"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
)

// Wire format of a resolved graph of agreements, for the broadcast step
// of the paper's Algorithm 5 (line 6: the driver ships the grid and its
// agreements to every worker). After resolution only the agreement types
// and edge marks matter for point assignment — locks exist solely to
// steer Algorithm 1 and weights solely to order it — so each quartet
// costs exactly three bytes: the low 18 bits of its stored word (see
// table.go), 6 type bits (one per unordered cell pair in canonical order)
// and 12 mark bits (one per directed edge). The format predates the
// packed word and is unchanged by it: Decode stores each record as the
// quartet's word, with no locks, and compiles its assignment table.
//
//	magic "SJAG" | version u8 | policy u8
//	bounds 4×f64 | eps f64 | res f64
//	quartet count u32 | 3 bytes per quartet
const (
	encodeMagic   = "SJAG"
	encodeVersion = 1
	// bytesPerQuartet is the per-quartet payload: types + marks.
	bytesPerQuartet = 3
	headerBytes     = 4 + 1 + 1 + 6*8 + 4
)

// EncodedSize returns the exact number of bytes Encode will write — the
// broadcast cost of the graph.
func (gr *Graph) EncodedSize() int {
	return headerBytes + bytesPerQuartet*len(gr.words)
}

// Encode writes the resolved graph in the wire format.
func (gr *Graph) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(encodeMagic); err != nil {
		return fmt.Errorf("agreements: encode: %w", err)
	}
	bw.WriteByte(encodeVersion)
	bw.WriteByte(byte(gr.Policy))
	g := gr.Grid
	for _, f := range []float64{g.Bounds.MinX, g.Bounds.MinY, g.Bounds.MaxX, g.Bounds.MaxY, g.Eps, g.Res} {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		bw.Write(buf[:])
	}
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(gr.words)))
	bw.Write(cnt[:])

	for _, w := range gr.words {
		marks := w >> markShift & edgeMask // little-endian u16
		bw.WriteByte(byte(w & typeMask))
		bw.WriteByte(byte(marks))
		bw.WriteByte(byte(marks >> 8))
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("agreements: encode: %w", err)
	}
	return nil
}

// Decode reconstructs a graph from the wire format. The returned graph
// assigns points identically to the encoded one; weights and locks are
// not part of the format (they are build-time-only state). Decode fails
// closed: a truncated or over-long input, a non-positive or non-finite ε
// or resolution, non-finite bounds, a grid past grid.MaxCells or a
// quartet count that does not match the grid is an error, never a graph.
func Decode(b []byte) (*Graph, error) {
	r := codec.NewReader(b)
	magic := r.Bytes(4)
	version := r.U8()
	policy := Policy(r.U8())
	bounds := geom.Rect{MinX: r.F64(), MinY: r.F64(), MaxX: r.F64(), MaxY: r.F64()}
	eps, res := r.F64(), r.F64()
	count := r.Count(bytesPerQuartet)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("agreements: decode: %w", err)
	}
	if string(magic) != encodeMagic {
		return nil, fmt.Errorf("agreements: decode: bad magic %q", magic)
	}
	if version != encodeVersion {
		return nil, fmt.Errorf("agreements: decode: unsupported version %d", version)
	}
	if bounds.IsEmpty() || !(eps > 0) || !(res > 0) || math.IsInf(eps*res, 0) {
		return nil, fmt.Errorf("agreements: decode: invalid grid parameters (eps %v, res %v, bounds %+v)", eps, res, bounds)
	}
	if err := grid.Check(bounds, eps, res); err != nil {
		return nil, fmt.Errorf("agreements: decode: %w", err)
	}
	g := grid.New(bounds, eps, res)
	if count != g.NumQuartets() {
		return nil, fmt.Errorf("agreements: decode: %d quartets, grid needs %d", count, g.NumQuartets())
	}

	gr := newGraph(g, policy)
	var cache tableCache
	for gy := 0; gy <= g.NY; gy++ {
		for gx := 0; gx <= g.NX; gx++ {
			body := r.Bytes(bytesPerQuartet) // Count checked the bytes are there
			s := scratch(g, gx, gy)
			s.w = uint32(body[0]&typeMask) | uint32(binary.LittleEndian.Uint16(body[1:])&edgeMask)<<markShift
			gr.store(gx, gy, &s, &cache)
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("agreements: decode: %w", err)
	}
	return gr, nil
}
