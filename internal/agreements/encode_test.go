package agreements

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
	forEachQuartet(gr, func(gx, gy int, a *Subgraph) {
		b := back.Quartet(gx, gy)
		if a.Cells != b.Cells || a.Ref != b.Ref {
			t.Fatalf("quartet (%d,%d) geometry mismatch", gx, gy)
		}
		for i := grid.Pos(0); i < grid.NumPos; i++ {
			for j := grid.Pos(0); j < grid.NumPos; j++ {
				if i == j {
					continue
				}
				if a.Type(i, j) != b.Type(i, j) {
					t.Fatalf("quartet (%d,%d) edge %v->%v type mismatch", gx, gy, i, j)
				}
				if a.Marked(i, j) != b.Marked(i, j) {
					t.Fatalf("quartet (%d,%d) edge %v->%v mark mismatch", gx, gy, i, j)
				}
				if b.Locked(i, j) {
					t.Fatalf("quartet (%d,%d) edge %v->%v: locks are not on the wire, decoded one", gx, gy, i, j)
				}
			}
		}
	})
	// Locks only steer Algorithm 1: the compiled tables, which are all
	// point assignment reads, must survive the trip unchanged.
	if !slices.Equal(gr.tables, back.tables) {
		t.Fatal("decoded assignment tables differ from the encoded graph's")
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

// TestEncodeBytesPinned pins the wire bytes of graphs built by every
// edge order and both sampled policies, so a change to how the graph is
// stored cannot move the broadcast format.
func TestEncodeBytesPinned(t *testing.T) {
	g := grid.New(geom.Rect{MaxX: 80, MaxY: 60}, 1, 2)
	st := grid.NewStats(g)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		st.Add(tuple.Set(rng.Intn(2)), geom.Point{X: rng.Float64() * 80, Y: rng.Float64() * 60})
	}
	want := map[string]string{
		"LPiB/paper":       "0de2bd31500b700312ff94d6ab4856bdad6a52f7e6cfd6a21253413151276f02",
		"LPiB/weight-only": "37ba8d604f5ac166abf56ca845d62f1fd2509b9c9dd533004e691250dadbcac7",
		"LPiB/index":       "60785d67e207be32b09fe96600c4ee41ad7e1e7146f19a23a1303479c5852930",
		"DIFF/paper":       "96fa97e3fe1391afd550186dcc1283486971d64651dfa2212cb3a1b6cded0ae6",
		"DIFF/weight-only": "1eec90085cc107cf63ba2c3bd4f4511bdad9ee3eeba0795976df004d231072fe",
		"DIFF/index":       "c8c21d9c95818d2661187133c0cee8e947d0dd2cbade55862e9510e6dc02f1e4",
	}
	for _, pol := range []Policy{LPiB, DIFF} {
		for _, order := range []Order{OrderPaper, OrderWeightOnly, OrderIndex} {
			var buf bytes.Buffer
			gr := BuildOrdered(st, pol, order)
			if err := gr.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			name := pol.String() + "/" + order.String()
			got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
			if w := want[name]; got != w {
				t.Errorf("%s: encoding sha256 %s, want %s", name, got, w)
			}
		}
	}
}

// TestGraphBytesPerQuartet bounds what a graph costs in memory: each of
// BuildOrdered, BuildFromTypeFunc and Decode allocates at most 16 bytes
// per quartet on a 1000×1000-cell grid (a word and a compiled table are
// 12). It also caps what a well-formed 3-byte-per-quartet broadcast can
// make Decode allocate.
func TestGraphBytesPerQuartet(t *testing.T) {
	const side, maxBytes = 2000, 16
	g := grid.New(geom.Rect{MaxX: side, MaxY: side}, 1, 2)
	if g.NX != 1000 || g.NY != 1000 {
		t.Fatalf("grid is %d×%d cells, want 1000×1000", g.NX, g.NY)
	}
	st := grid.NewStats(g)
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 400_000; i++ {
		st.Add(tuple.Set(rng.Intn(2)), geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side})
	}
	measure := func(name string, build func() *Graph) *Graph {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		gr := build()
		runtime.ReadMemStats(&after)
		marked, _ := gr.EdgeCounts()
		perQuartet := float64(after.TotalAlloc-before.TotalAlloc) / float64(g.NumQuartets())
		t.Logf("%s: %.2f bytes per quartet, %d marked edges", name, perQuartet, marked)
		if perQuartet > maxBytes {
			t.Errorf("%s allocates %.2f bytes per quartet, want at most %d", name, perQuartet, maxBytes)
		}
		if marked == 0 {
			t.Errorf("%s: no marked edge, so Algorithm 1 never ran", name)
		}
		return gr
	}
	built := measure("BuildOrdered", func() *Graph { return BuildOrdered(st, LPiB, OrderPaper) })
	measure("BuildFromTypeFunc", func() *Graph {
		return BuildFromTypeFunc(g, func(ci, cj int) tuple.Set { return tuple.Set((ci ^ cj) & 1) })
	})
	var buf bytes.Buffer
	if err := built.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	measure("Decode", func() *Graph {
		gr, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return gr
	})
}
