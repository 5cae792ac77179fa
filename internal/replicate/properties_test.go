package replicate

import (
	"bytes"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"spatialjoin/internal/agreements"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/tuple"
)

// Every point is assigned to at most 4 cells even by the simplified
// (duplicate-producing) variant, so a result pair can be reported at most
// 4 times: both endpoints appear in at most 4 cells and co-occurrence is
// bounded by the smaller multiset.
func TestAdaptiveSimpleMultiplicityBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := grid.New(geom.Rect{MinX: 0, MinY: 0, MaxX: 12, MaxY: 12}, 1, 2)
	gr := agreements.BuildFromTypeFunc(g, hashTypeFunc(7))
	rs, ss := clusteredTuples(g, rng, 50)

	pairCount := map[tuple.Pair]int{}
	got := joinViaAssign(g, rs, ss, func(p geom.Point, set tuple.Set, dst []int) []int {
		return AdaptiveSimple(gr, p, set, dst)
	})
	for _, p := range got {
		pairCount[p]++
	}
	for p, n := range pairCount {
		if n > 4 {
			t.Fatalf("pair %v reported %d times; the multiplicity bound is 4", p, n)
		}
	}
}

// The simplified variant never replicates MORE than the full adaptive
// variant plus its supplementary copies would suggest missing; concretely
// its assignment is a subset of "agreement says replicate": each point
// goes to at most as many cells as the duplicate-free variant plus one.
func TestSimpleAssignmentStaysSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := grid.New(geom.Rect{MinX: 0, MinY: 0, MaxX: 12, MaxY: 12}, 1, 2)
	gr := agreements.BuildFromTypeFunc(g, hashTypeFunc(8))
	var bufA, bufB []int
	for i := 0; i < 10000; i++ {
		p := geom.Point{X: rng.Float64() * 12, Y: rng.Float64() * 12}
		set := tuple.Set(rng.Intn(2))
		bufA = AdaptiveSimple(gr, p, set, bufA[:0])
		bufB = Adaptive(gr, p, set, bufB[:0])
		if len(bufA) > 4 {
			t.Fatalf("simple assignment of %v spans %d cells", p, len(bufA))
		}
		// Both keep the native cell first.
		if bufA[0] != bufB[0] {
			t.Fatalf("variants disagree on native cell for %v", p)
		}
	}
}

// Adaptive replication with a universal-policy graph must coincide
// exactly with the PBSM universal rule (PBSM is an instance of the graph
// of agreements, Section 4.4).
func TestUniversalPolicyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := grid.New(geom.Rect{MinX: 0, MinY: 0, MaxX: 16, MaxY: 16}, 1, 2)
	st := grid.NewStats(g)
	gr := agreements.Build(st, agreements.UniR)

	var bufA, bufU []int
	for i := 0; i < 20000; i++ {
		p := geom.Point{X: rng.Float64() * 16, Y: rng.Float64() * 16}
		// R points replicate exactly like PBSM UNI(R)...
		bufA = Adaptive(gr, p, tuple.R, bufA[:0])
		bufU = Universal(g, p, true, bufU[:0])
		if !sameSet(bufA, bufU) {
			t.Fatalf("R point %v: adaptive-UniR %v != universal %v", p, bufA, bufU)
		}
		// ...and S points stay in their native cell.
		bufA = Adaptive(gr, p, tuple.S, bufA[:0])
		if len(bufA) != 1 {
			t.Fatalf("S point %v replicated under UniR policy: %v", p, bufA)
		}
	}
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[int]bool{}
	for _, v := range a {
		m[v] = true
	}
	for _, v := range b {
		if !m[v] {
			return false
		}
	}
	return true
}

// A graph that has been encoded and decoded must assign every point to
// exactly the same cells as the original — the broadcast wire format
// carries everything replication needs.
func TestDecodedGraphAssignsIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g := grid.New(geom.Rect{MinX: 0, MinY: 0, MaxX: 14, MaxY: 14}, 1, 2)
	st := grid.NewStats(g)
	for i := 0; i < 2000; i++ {
		st.Add(tuple.Set(rng.Intn(2)), geom.Point{X: rng.Float64() * 14, Y: rng.Float64() * 14})
	}
	gr := agreements.Build(st, agreements.LPiB)
	var buf bytes.Buffer
	if err := gr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := agreements.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB []int
	for i := 0; i < 20000; i++ {
		p := geom.Point{X: rng.Float64() * 14, Y: rng.Float64() * 14}
		set := tuple.Set(rng.Intn(2))
		bufA = Adaptive(gr, p, set, bufA[:0])
		bufB = Adaptive(back, p, set, bufB[:0])
		if len(bufA) != len(bufB) {
			t.Fatalf("point %v: %v vs %v", p, bufA, bufB)
		}
		for k := range bufA {
			if bufA[k] != bufB[k] {
				t.Fatalf("point %v: %v vs %v", p, bufA, bufB)
			}
		}
	}
}

// TestAdaptiveSoak is a long randomized oracle comparison; the trial
// count scales with SOAK_TRIALS (default small so CI stays fast).
func TestAdaptiveSoak(t *testing.T) {
	trials := 10
	if v := os.Getenv("SOAK_TRIALS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			trials = n
		}
	}
	rng := rand.New(rand.NewSource(20260704))
	for trial := 0; trial < trials; trial++ {
		res := 2 + rng.Float64()*3
		w := 2 + rng.Float64()*8
		h := 2 + rng.Float64()*8
		bounds := geom.Rect{
			MinX: rng.Float64()*10 - 5, MinY: rng.Float64()*10 - 5,
		}
		bounds.MaxX = bounds.MinX + w*res
		bounds.MaxY = bounds.MinY + h*res
		g := grid.New(bounds, 1, res)

		// Mix lattice points with corner clusters for maximum pressure on
		// the duplicate-prone machinery.
		rs, ss := gridPoints(bounds, 1.1, rng)
		cr, cs := clusteredTuples(g, rng, 12)
		for i := range cr {
			cr[i].ID += 10_000_000
		}
		for i := range cs {
			cs[i].ID += 11_000_000
		}
		rs = append(rs, cr...)
		ss = append(ss, cs...)

		want := oracle(rs, ss, g.Eps)
		gr := agreements.BuildFromTypeFunc(g, hashTypeFunc(rng.Int63()))
		got := joinViaAssign(g, rs, ss, func(p geom.Point, set tuple.Set, dst []int) []int {
			return Adaptive(gr, p, set, dst)
		})
		if d := diffPairs(got, want); d != "" {
			t.Fatalf("soak trial %d (res %.3f, %dx%d): %s", trial, res, g.NX, g.NY, d)
		}
	}
}
