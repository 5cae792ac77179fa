package agreements

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"spatialjoin/internal/codec"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/tuple"
)

// wireBytes returns the graph in the broadcast format encode.go
// documents: the header, then each quartet's low 18 word bits as 6 type
// bits and 12 little-endian mark bits.
func wireBytes(gr *Graph) []byte {
	g := gr.Grid
	b := append([]byte("SJAG"), 1, byte(gr.Policy))
	for _, f := range []float64{g.Bounds.MinX, g.Bounds.MinY, g.Bounds.MaxX, g.Bounds.MaxY, g.Eps, g.Res} {
		b = codec.AppendF64(b, f)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(gr.words)))
	for _, w := range gr.words {
		b = append(b, byte(w&typeMask))
		b = binary.LittleEndian.AppendUint16(b, uint16(w>>markShift&edgeMask))
	}
	return b
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
// stored or resolved cannot move the types and marks it holds, and
// EncodedSize counts exactly those bytes.
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
			gr := BuildOrdered(st, pol, order)
			b := wireBytes(gr)
			name := pol.String() + "/" + order.String()
			if len(b) != gr.EncodedSize() {
				t.Errorf("%s: %d wire bytes, EncodedSize says %d", name, len(b), gr.EncodedSize())
			}
			got := fmt.Sprintf("%x", sha256.Sum256(b))
			if w := want[name]; got != w {
				t.Errorf("%s: encoding sha256 %s, want %s", name, got, w)
			}
		}
	}
}

// TestGraphBytesPerQuartet bounds what a graph costs in memory: each of
// BuildOrdered and BuildFromTypeFunc allocates at most 16 bytes per
// quartet on a 1000×1000-cell grid (a word and a compiled table are 12).
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
	measure := func(name string, build func() *Graph) {
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
	}
	measure("BuildOrdered", func() *Graph { return BuildOrdered(st, LPiB, OrderPaper) })
	measure("BuildFromTypeFunc", func() *Graph {
		return BuildFromTypeFunc(g, func(ci, cj int) tuple.Set { return tuple.Set((ci ^ cj) & 1) })
	})
}
