package colpipe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// sortCase generates the x of one group of n rows.
type sortCase struct {
	name string
	x    func(rng *rand.Rand, n int) []float64
}

// each fills n values with f(i).
func each(n int, f func(i int) float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f(i)
	}
	return xs
}

// sortCases are the x shapes the group sort must order exactly like a
// stable comparison sort: ties, signed zeros, one key run holding almost
// every row, both presorted directions, ranges whose span overflows or
// underflows, and plain random rows.
var sortCases = []sortCase{
	{"uniform", func(rng *rand.Rand, n int) []float64 {
		return each(n, func(int) float64 { return rng.Float64() * 100 })
	}},
	{"all-equal", func(_ *rand.Rand, n int) []float64 {
		return each(n, func(int) float64 { return 3.5 })
	}},
	{"lattice-8", func(rng *rand.Rand, n int) []float64 {
		return each(n, func(int) float64 { return 10 + float64(rng.Intn(8))*0.125 })
	}},
	{"signed-zero", func(rng *rand.Rand, n int) []float64 {
		vals := []float64{math.Copysign(0, -1), 0, 1, -1}
		return each(n, func(int) float64 { return vals[rng.Intn(len(vals))] })
	}},
	{"only-signed-zero", func(rng *rand.Rand, n int) []float64 {
		return each(n, func(int) float64 { return math.Copysign(0, float64(rng.Intn(2))-0.5) })
	}},
	{"cluster+outlier", func(rng *rand.Rand, n int) []float64 {
		xs := each(n, func(int) float64 { return 5 + rng.Float64()*1e-9 })
		if n > 0 {
			xs[rng.Intn(n)] = 6
		}
		return xs
	}},
	{"reverse-sorted", func(_ *rand.Rand, n int) []float64 {
		return each(n, func(i int) float64 { return float64(n - i) })
	}},
	{"sorted", func(_ *rand.Rand, n int) []float64 {
		return each(n, func(i int) float64 { return float64(i) * 0.01 })
	}},
	{"huge-range", func(rng *rand.Rand, n int) []float64 {
		xs := each(n, func(int) float64 { return (2*rng.Float64() - 1) * 1e308 })
		if n > 1 {
			xs[0], xs[n-1] = 1e308, -1e308
		}
		return xs
	}},
	{"subnormal", func(rng *rand.Rand, n int) []float64 {
		return each(n, func(int) float64 { return math.SmallestNonzeroFloat64 * float64(rng.Intn(1000)) })
	}},
	{"subnormal+one", func(rng *rand.Rand, n int) []float64 {
		return each(n, func(int) float64 {
			if rng.Intn(50) == 0 {
				return 1
			}
			return math.SmallestNonzeroFloat64 * float64(rng.Intn(1000))
		})
	}},
}

// slabOf builds a slab with one group per size, x from xOf, random y,
// ids numbering the rows and, when payload is set, a payload lane in
// which every seventh row carries none.
func slabOf(rng *rand.Rand, sizes []int, xOf func(n int) []float64, payload bool) Slab {
	s := Slab{Starts: []int32{0}}
	for k, n := range sizes {
		s.Ranks = append(s.Ranks, int32(k))
		s.Xs = append(s.Xs, xOf(n)...)
		s.Starts = append(s.Starts, int32(len(s.Xs)))
	}
	s.Ys = make([]float64, len(s.Xs))
	s.IDs = make([]int64, len(s.Xs))
	for i := range s.Xs {
		s.Ys[i] = rng.Float64()
		s.IDs[i] = int64(i)
	}
	if payload {
		s.Payloads = make([][]byte, len(s.Xs))
		for i := range s.Payloads {
			if i%7 != 0 {
				s.Payloads[i] = binary.LittleEndian.AppendUint64(nil, uint64(i))
			}
		}
	}
	return s
}

// oracleSort is the reference group sort: sort.SliceStable by x over
// each group's rows, every lane permuted with its row.
func oracleSort(s *Slab) Slab {
	want := Slab{Ranks: s.Ranks, Starts: s.Starts}
	for k := range s.Ranks {
		lo, hi := s.Group(k)
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		sort.SliceStable(idx, func(a, b int) bool { return s.Xs[idx[a]] < s.Xs[idx[b]] })
		for _, i := range idx {
			want.Xs, want.Ys, want.IDs = append(want.Xs, s.Xs[i]), append(want.Ys, s.Ys[i]), append(want.IDs, s.IDs[i])
			if s.Payloads != nil {
				want.Payloads = append(want.Payloads, s.Payloads[i])
			}
		}
	}
	return want
}

// clone deep-copies the lanes of a slab.
func clone(s *Slab) Slab {
	c := *s
	c.Xs, c.Ys, c.IDs = slices.Clone(s.Xs), slices.Clone(s.Ys), slices.Clone(s.IDs)
	c.Payloads = slices.Clone(s.Payloads)
	return c
}

// checkSorted runs st.SortGroups on a copy of s and compares every lane
// bit for bit with the oracle.
func checkSorted(t *testing.T, st *Sorter, s *Slab, what string) {
	t.Helper()
	want := oracleSort(s)
	got := clone(s)
	st.SortGroups(&got)
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	switch {
	case !slices.Equal(bits(got.Xs), bits(want.Xs)):
		t.Fatalf("%s: Xs differ from the stable oracle", what)
	case !slices.Equal(bits(got.Ys), bits(want.Ys)):
		t.Fatalf("%s: Ys differ from the stable oracle", what)
	case !slices.Equal(got.IDs, want.IDs):
		t.Fatalf("%s: IDs (row order) differ from the stable oracle", what)
	case (got.Payloads == nil) != (s.Payloads == nil) || !slices.EqualFunc(got.Payloads, want.Payloads, bytes.Equal):
		t.Fatalf("%s: payloads left their rows", what)
	}
}

// TestSortGroupsMatchesStableOracle pins the group sort's order: for
// every x shape, group sizes from 0 to 5,000 (across insertionSortMax
// and both radix passes) and slabs with and without a payload lane,
// SortGroups must leave every lane exactly as a stable sort by x does.
// One Sorter serves every slab, so scratch reuse across slabs of other
// sizes and lanes is covered too.
func TestSortGroupsMatchesStableOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var st Sorter
	sizes := []int{0, 1, 2, 3, insertionSortMax - 1, insertionSortMax, insertionSortMax + 1, 100, 257, 1000, 5000}
	for _, c := range sortCases {
		for _, payload := range []bool{false, true} {
			xOf := func(n int) []float64 { return c.x(rng, n) }
			for _, n := range sizes {
				s := slabOf(rng, []int{n}, xOf, payload)
				checkSorted(t, &st, &s, fmt.Sprintf("%s payload=%v n=%d", c.name, payload, n))
			}
			// A slab of mixed group sizes: small groups between large ones.
			mixed := make([]int, 40)
			for k := range mixed {
				mixed[k] = rng.Intn(60)
				if k%9 == 0 {
					mixed[k] = rng.Intn(5001)
				}
			}
			s := slabOf(rng, mixed, xOf, payload)
			checkSorted(t, &st, &s, fmt.Sprintf("%s payload=%v mixed", c.name, payload))
		}
	}
}

// FuzzSortGroups holds SortGroups to the stable oracle on fuzzed x
// values and group sizes. data is read as float64 bit patterns (NaN and
// ±Inf are dropped: the engine rejects non-finite points before the
// shuffle) and cycled over the rows, so short inputs still make large
// groups full of ties; sizes gives each group's row count, two bytes a
// group, modulo 5,001.
func FuzzSortGroups(f *testing.F) {
	lanes := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	sizes := func(ns ...int) []byte {
		var b []byte
		for _, n := range ns {
			b = binary.LittleEndian.AppendUint16(b, uint16(n))
		}
		return b
	}
	f.Add(lanes(1, 2, 3), sizes(30), false)
	f.Add(lanes(3.5), sizes(100, 5), true)
	f.Add(lanes(0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875), sizes(2000), false)
	f.Add(lanes(math.Copysign(0, -1), 0, 1), sizes(64, 25), true)
	f.Add(lanes(5, 5+1e-10, 5+2e-10, 5+3e-10, 6), sizes(1000), false)
	f.Add(lanes(1e308, -1e308, 0), sizes(300), true)
	f.Add(lanes(math.SmallestNonzeroFloat64, 2*math.SmallestNonzeroFloat64, 0), sizes(500), false)
	f.Add(lanes(9, 8, 7, 6, 5, 4, 3, 2, 1), sizes(5000, 0, 24), true)
	f.Fuzz(func(t *testing.T, data, sizeBytes []byte, payload bool) {
		var vals []float64
		for ; len(data) >= 8; data = data[8:] {
			if x := math.Float64frombits(binary.LittleEndian.Uint64(data)); !math.IsNaN(x) && !math.IsInf(x, 0) {
				vals = append(vals, x)
			}
		}
		if len(vals) == 0 {
			vals = []float64{0}
		}
		var ns []int
		for ; len(sizeBytes) >= 2 && len(ns) < 8; sizeBytes = sizeBytes[2:] {
			ns = append(ns, int(binary.LittleEndian.Uint16(sizeBytes))%5001)
		}
		row := 0
		xOf := func(n int) []float64 {
			return each(n, func(int) float64 { row++; return vals[(row-1)%len(vals)] })
		}
		s := slabOf(rand.New(rand.NewSource(1)), ns, xOf, payload)
		var st Sorter
		checkSorted(t, &st, &s, "fuzz")
	})
}

// BenchmarkSortGroups times SortGroups over two group-size mixes and
// reports ns per row. skew is shaped like the skewed batch workload's
// slabs (a mean near 80 rows, a few groups past 10,000; most groups take
// the radix sort), sparse like the uniform one's (a mean near 9, almost
// every group on the insertion path). Each iteration re-sorts a fresh copy of
// the same unsorted slab; the copy is not timed.
func BenchmarkSortGroups(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	mixes := []struct {
		name  string
		sizes func() []int
	}{
		{"skew", func() []int {
			sizes := make([]int, 4000)
			for k := range sizes {
				sizes[k] = int(math.Exp(rng.NormFloat64()*1.1 + math.Log(36)))
			}
			sizes[100], sizes[2000], sizes[3500] = 12_000, 11_000, 10_500
			return sizes
		}},
		{"sparse", func() []int {
			// Poisson(9.3) sizes by Knuth's method, the tail reaching past
			// insertionSortMax as the uniform workload's does.
			sizes := make([]int, 30_000)
			for k := range sizes {
				n, p := 0, rng.Float64()
				for ; p > math.Exp(-9.3); p *= rng.Float64() {
					n++
				}
				sizes[k] = max(n, 1)
			}
			return sizes
		}},
	}
	for _, mix := range mixes {
		sizes := mix.sizes()
		src := slabOf(rng, sizes, func(n int) []float64 {
			x0 := rng.Float64() * 100
			return each(n, func(int) float64 { return x0 + rng.Float64() })
		}, false)
		b.Run(mix.name, func(b *testing.B) {
			work := clone(&src)
			var st Sorter
			var sorting time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(work.Xs, src.Xs)
				copy(work.Ys, src.Ys)
				copy(work.IDs, src.IDs)
				b.StartTimer()
				t0 := time.Now()
				st.SortGroups(&work)
				sorting += time.Since(t0)
			}
			b.ReportMetric(float64(sorting.Nanoseconds())/float64(b.N)/float64(src.Rows()), "ns/row")
			b.ReportMetric(float64(src.Rows())/float64(len(sizes)), "rows/group")
		})
	}
}
