// Package tuple defines the record type that flows through the join
// pipeline: an identified spatial point plus an optional non-spatial
// payload, together with the serialized-size model used by the engine's
// shuffle accounting.
//
// The paper's evaluation varies a "tuple size factor" (f0..f4): real-world
// spatial records carry extra attributes (names, descriptions, ...) whose
// bytes must travel through every shuffle. The factors map to payload sizes
// via Factors.
package tuple

import (
	"fmt"

	"spatialjoin/internal/geom"
)

// Set identifies which join input a tuple belongs to.
type Set uint8

const (
	// R is the left join input.
	R Set = iota
	// S is the right join input.
	S
)

// String returns "R" or "S".
func (s Set) String() string {
	if s == R {
		return "R"
	}
	return "S"
}

// Other returns the opposite set.
func (s Set) Other() Set {
	if s == R {
		return S
	}
	return R
}

// Tuple is one record of a join input: a point with a stable identifier and
// an optional opaque payload of non-spatial attributes.
type Tuple struct {
	ID      int64
	Pt      geom.Point
	Payload []byte
}

// NonFiniteError is the error a join returns for an input row whose
// point has a NaN or infinite coordinate: no grid cell, quadtree leaf or
// sort key is defined for it.
type NonFiniteError struct {
	Set Set
	Row int // index of the row in its input
	ID  int64
	Pt  geom.Point
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("join input %v row %d (id %d) has a non-finite coordinate (%v, %v): points must be finite",
		e.Set, e.Row, e.ID, e.Pt.X, e.Pt.Y)
}

// SerializedSize returns the number of bytes this tuple occupies in the
// engine's wire format: 8 (id) + 16 (coordinates) + len(payload).
// This is the size model used for shuffle accounting.
func (t Tuple) SerializedSize() int {
	return 8 + 16 + len(t.Payload)
}

// KeyedSize returns the wire size of the tuple once it has been keyed for
// a shuffle: SerializedSize plus 8 bytes for the partition key.
func (t Tuple) KeyedSize() int {
	return t.SerializedSize() + 8
}

// Factors lists the payload sizes in bytes for the paper's tuple size
// factors f0..f4. f0 carries no extra attributes.
var Factors = []int{0, 32, 64, 128, 256}

// FactorName returns the paper's name for factor index i ("f0".."f4").
func FactorName(i int) string {
	names := []string{"f0", "f1", "f2", "f3", "f4"}
	if i >= 0 && i < len(names) {
		return names[i]
	}
	return "f?"
}

// WithPayloads returns a copy of ts where every tuple carries a payload of
// size bytes (shared backing array: payload content is irrelevant to the
// join, only its size matters for shuffle accounting).
func WithPayloads(ts []Tuple, size int) []Tuple {
	if size <= 0 {
		return ts
	}
	payload := make([]byte, size)
	out := make([]Tuple, len(ts))
	for i, t := range ts {
		t.Payload = payload
		out[i] = t
	}
	return out
}

// FromPoints wraps points into tuples with sequential IDs starting at base.
func FromPoints(pts []geom.Point, base int64) []Tuple {
	out := make([]Tuple, len(pts))
	for i, p := range pts {
		out[i] = Tuple{ID: base + int64(i), Pt: p}
	}
	return out
}

// Pair is one join result: the identifiers of an (r, s) tuple pair with
// d(r, s) <= eps.
type Pair struct {
	RID, SID int64
}

// PairHash mixes a pair of ids into a 64-bit value: the term of the
// order-independent result checksum every join reports. Summing hashes
// is order-independent, and the avalanche mixing makes colliding
// multisets of pairs overwhelmingly unlikely.
func PairHash(rid, sid int64) uint64 {
	x := uint64(rid)*0x9e3779b97f4a7c15 ^ uint64(sid)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
