package extgeom

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"spatialjoin/internal/codec"
	"spatialjoin/internal/geom"
)

// Wire encoding of one object's geometry, used as the tuple payload the
// non-point join ships through the shuffle (and the durable store's
// colfiles persist):
//
//	kind u8 | nverts u32 | nverts × (x f64 | y f64)
//
// Little-endian, self-delimiting. The MBR is not stored: it is derivable
// in one pass, which DecodeObjectInto makes while it copies the vertices
// out.

// wireHeader is the fixed prefix size of an encoded object.
const wireHeader = 1 + 4

// ObjectWireSize returns the number of bytes AppendObject writes for o.
func ObjectWireSize(o *Object) int { return wireHeader + 16*len(o.Verts) }

// AppendObject appends the wire encoding of o's geometry to dst. The
// object id travels separately (it is the tuple id).
func AppendObject(dst []byte, o *Object) []byte {
	dst = append(dst, byte(o.Kind))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(o.Verts)))
	for _, v := range o.Verts {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.X))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Y))
	}
	return dst
}

// DecodeObject decodes a geometry payload into an object with the given
// id.
func DecodeObject(id int64, b []byte) (Object, error) {
	o, _, _, err := DecodeObjectInto(nil, id, b)
	return o, err
}

// DecodeObjectInto is DecodeObject for a caller that decodes many
// objects and keeps their vertices in one arena: the vertices are
// appended to arena, the returned object's Verts alias exactly that range
// (capacity capped, so appending to them cannot reach a neighbour), and
// the MBR falls out of the same pass. It returns the extended arena; on
// error the arena comes back as it was passed in.
func DecodeObjectInto(arena []geom.Point, id int64, b []byte) (Object, geom.Rect, []geom.Point, error) {
	kind, n, err := decodeHeader(b)
	if err != nil {
		return Object{}, geom.Rect{}, arena, err
	}
	start := len(arena)
	verts := slices.Grow(arena, n)[:start+n]
	mbr := geom.EmptyRect()
	for i := 0; i < n; i++ {
		p := geom.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(b[wireHeader+16*i:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(b[wireHeader+16*i+8:])),
		}
		verts[start+i] = p
		mbr = mbr.ExtendPoint(p)
	}
	o := Object{ID: id, Kind: kind, Verts: verts[start : start+n : start+n]}
	if err := o.Validate(); err != nil {
		return Object{}, geom.Rect{}, arena, err
	}
	return o, mbr, verts, nil
}

// decodeHeader reads the kind and vertex count of an encoded object; the
// count is checked against the bytes present, so the vertex loops that
// follow stay in range and a lying header cannot force an allocation.
func decodeHeader(b []byte) (Kind, int, error) {
	r := codec.NewReader(b)
	kind := Kind(r.U8())
	n := r.Count(16) // x, y per vertex
	if err := r.Err(); err != nil {
		return 0, 0, fmt.Errorf("extgeom: decode: %w", err)
	}
	if kind > KindPolygon {
		return 0, 0, fmt.Errorf("extgeom: decode: unknown kind %d", kind)
	}
	return kind, n, nil
}
