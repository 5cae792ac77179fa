package agreements

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"spatialjoin/internal/codec"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/tuple"
)

func buildRandomGraph(t *testing.T, seed int64) *Graph {
	t.Helper()
	g := grid.New(geom.Rect{MinX: -2, MinY: 3, MaxX: 14, MaxY: 19}, 1, 2)
	st := grid.NewStats(g)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 3000; i++ {
		st.Add(tuple.Set(rng.Intn(2)), geom.Point{
			X: -2 + rng.Float64()*16, Y: 3 + rng.Float64()*16,
		})
	}
	return Build(st, LPiB)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	gr := buildRandomGraph(t, 1)
	var buf bytes.Buffer
	if err := gr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != gr.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize promised %d", buf.Len(), gr.EncodedSize())
	}
	back, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Policy != gr.Policy {
		t.Fatalf("policy = %v, want %v", back.Policy, gr.Policy)
	}
	if back.Grid.NX != gr.Grid.NX || back.Grid.NY != gr.Grid.NY ||
		back.Grid.Eps != gr.Grid.Eps || back.Grid.Bounds != gr.Grid.Bounds {
		t.Fatal("grid parameters did not round trip")
	}
	for qi := range gr.Subs {
		a, b := &gr.Subs[qi], &back.Subs[qi]
		if a.Cells != b.Cells || a.Ref != b.Ref {
			t.Fatalf("quartet %d geometry mismatch", qi)
		}
		for i := grid.Pos(0); i < grid.NumPos; i++ {
			for j := grid.Pos(0); j < grid.NumPos; j++ {
				if i == j {
					continue
				}
				if a.Type(i, j) != b.Type(i, j) {
					t.Fatalf("quartet %d edge %v->%v type mismatch", qi, i, j)
				}
				if a.Marked(i, j) != b.Marked(i, j) {
					t.Fatalf("quartet %d edge %v->%v mark mismatch", qi, i, j)
				}
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	gr := buildRandomGraph(t, 2)
	var buf bytes.Buffer
	if err := gr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), full[4:]...),
		"bad version": append(append([]byte("SJAG"), 99), full[5:]...),
		"truncated":   full[:len(full)-5],
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
}

// header encodes a graph header with the given grid parameters followed
// by count zeroed quartets.
func header(bounds geom.Rect, eps, res float64, count uint32) []byte {
	b := append([]byte(encodeMagic), encodeVersion, byte(LPiB))
	for _, f := range []float64{bounds.MinX, bounds.MinY, bounds.MaxX, bounds.MaxY, eps, res} {
		b = codec.AppendF64(b, f)
	}
	b = binary.LittleEndian.AppendUint32(b, count)
	return append(b, make([]byte, bytesPerQuartet*int(count))...)
}

// Decode fails closed on grid parameters no encoder writes: each case
// below would otherwise build a graph over a NaN, infinite, degenerate
// or oversized grid.
func TestDecodeRejectsHostileGrid(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	box := geom.Rect{MaxX: 10, MaxY: 10}
	cases := []struct {
		name string
		data []byte
		want string // substring of the error
	}{
		{"nan eps", header(box, nan, 2, 4), "invalid grid parameters"},
		{"inf eps", header(box, inf, 2, 4), "invalid grid parameters"},
		{"nan bounds", header(geom.Rect{MinX: nan, MaxX: 10, MaxY: 10}, 1, 2, 4), "exceeds the limit"},
		{"inf bounds", header(geom.Rect{MaxX: inf, MaxY: 10}, 1, 2, 4), "exceeds the limit"},
		{"zero res", header(box, 1, 0, 4), "invalid grid parameters"},
		{"negative res", header(box, 1, -2, 4), "invalid grid parameters"},
		{"past MaxCells", header(geom.Rect{MaxX: 1e6, MaxY: 1e6}, 0.01, 2, 4), "exceeds the limit"},
		{"lying count", header(box, 1, 2, 4)[:headerBytes+5], "truncated"},
		{"trailing bytes", append(header(box, 1, 2, 36), 0), "trailing"},
	}
	if _, err := Decode(header(box, 1, 2, 36)); err != nil {
		t.Fatalf("well-formed 5×5-cell header: %v", err)
	}
	for _, c := range cases {
		gr, err := Decode(c.data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Decode = (%v, %v), want an error containing %q", c.name, gr != nil, err, c.want)
		}
	}
}

func TestEncodedSizeScalesWithGrid(t *testing.T) {
	small := grid.New(geom.Rect{MinX: 0, MinY: 0, MaxX: 8, MaxY: 8}, 1, 2)
	big := grid.New(geom.Rect{MinX: 0, MinY: 0, MaxX: 80, MaxY: 80}, 1, 2)
	grSmall := Build(grid.NewStats(small), LPiB)
	grBig := Build(grid.NewStats(big), LPiB)
	if grBig.EncodedSize() <= grSmall.EncodedSize() {
		t.Fatal("bigger grid must encode larger")
	}
	// 3 bytes per quartet plus a constant header.
	want := grSmall.EncodedSize() + 3*(grBig.Grid.NumQuartets()-grSmall.Grid.NumQuartets())
	if grBig.EncodedSize() != want {
		t.Fatalf("encoded size = %d, want %d", grBig.EncodedSize(), want)
	}
}
