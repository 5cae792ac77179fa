package pbsm

import (
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/tuple"
)

func uniform(rng *rand.Rand, n int, base int64) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	for i := range out {
		out[i] = tuple.Tuple{
			ID: base + int64(i),
			Pt: geom.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40},
		}
	}
	return out
}

func TestAllVariantsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	rs := uniform(rng, 4000, 0)
	ss := uniform(rng, 3000, 1_000_000)
	eps := 0.8
	var want sweep.Counter
	sweep.NestedLoop(rs, ss, eps, want.Emit)

	for _, v := range []Variant{UniR, UniS, EpsGrid} {
		res, err := Join(rs, ss, Config{Eps: eps, Variant: v, Workers: 4})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.Results != want.N || res.Checksum != want.Checksum {
			t.Fatalf("%v: results %d/%x, want %d/%x", v, res.Results, res.Checksum, want.N, want.Checksum)
		}
	}
}

func TestOnlyChosenSetReplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rs := uniform(rng, 2000, 0)
	ss := uniform(rng, 2000, 1_000_000)

	r, err := Join(rs, ss, Config{Eps: 1, Variant: UniR})
	if err != nil {
		t.Fatal(err)
	}
	if r.ReplicatedR == 0 || r.ReplicatedS != 0 {
		t.Fatalf("UNI(R) replication R/S = %d/%d", r.ReplicatedR, r.ReplicatedS)
	}
	s, err := Join(rs, ss, Config{Eps: 1, Variant: UniS})
	if err != nil {
		t.Fatal(err)
	}
	if s.ReplicatedS == 0 || s.ReplicatedR != 0 {
		t.Fatalf("UNI(S) replication R/S = %d/%d", s.ReplicatedR, s.ReplicatedS)
	}
}

func TestEpsGridReplicatesMore(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	rs := uniform(rng, 5000, 0)
	ss := uniform(rng, 5000, 1_000_000)
	coarse, err := Join(rs, ss, Config{Eps: 1, Variant: UniR})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Join(rs, ss, Config{Eps: 1, Variant: EpsGrid})
	if err != nil {
		t.Fatal(err)
	}
	if fine.Replicated() <= coarse.Replicated() {
		t.Fatalf("eps-grid replicated %d, UNI(R) %d — expected the ε-grid to replicate more",
			fine.Replicated(), coarse.Replicated())
	}
	if fine.Grid.Res != 1 || coarse.Grid.Res != 2 {
		t.Fatalf("grid resolutions = %v/%v, want 1/2", fine.Grid.Res, coarse.Grid.Res)
	}
}

func TestEpsGridPicksSmallerSet(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	small, large := uniform(rng, 400, 0), uniform(rng, 800, 1_000_000)
	for _, tc := range []struct {
		name      string
		rs, ss    []tuple.Tuple
		wantReplR bool
	}{
		{"R smaller", small, large, true},
		{"S smaller", large, small, false},
		{"tie replicates R", small, large[:len(small)], true},
	} {
		res, err := Join(tc.rs, tc.ss, Config{Eps: 1, Variant: EpsGrid})
		if err != nil {
			t.Fatal(err)
		}
		if (res.ReplicatedR > 0) != tc.wantReplR || (res.ReplicatedS > 0) == tc.wantReplR {
			t.Errorf("%s: replicated R=%d S=%d", tc.name, res.ReplicatedR, res.ReplicatedS)
		}
	}
}

func TestVariantString(t *testing.T) {
	if UniR.String() != "UNI(R)" || UniS.String() != "UNI(S)" || EpsGrid.String() != "eps-grid" {
		t.Fatal("variant names broken")
	}
}

func TestValidation(t *testing.T) {
	if _, err := Join(nil, nil, Config{Eps: 0}); err == nil {
		t.Error("expected error for eps=0")
	}
	if _, err := Join(nil, nil, Config{Eps: 1}); err != nil {
		t.Errorf("empty join should succeed: %v", err)
	}
}

func TestCollect(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rs := uniform(rng, 300, 0)
	ss := uniform(rng, 300, 1_000_000)
	res, err := Join(rs, ss, Config{Eps: 2, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(res.Pairs)) != res.Results {
		t.Fatalf("collected %d, counted %d", len(res.Pairs), res.Results)
	}
}

func TestCloneRefPointMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	rs := uniform(rng, 4000, 0)
	ss := uniform(rng, 4000, 1_000_000)
	eps := 0.9
	var want sweep.Counter
	sweep.NestedLoop(rs, ss, eps, want.Emit)

	res, err := Join(rs, ss, Config{Eps: eps, Variant: Clone, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results != want.N || res.Checksum != want.Checksum {
		t.Fatalf("clone+refpoint: results %d/%x, want %d/%x", res.Results, res.Checksum, want.N, want.Checksum)
	}
	// Both sets replicate.
	if res.ReplicatedR == 0 || res.ReplicatedS == 0 {
		t.Fatalf("clone join must replicate both sets: %d/%d", res.ReplicatedR, res.ReplicatedS)
	}
	// And it must replicate (and shuffle) more than either single-set
	// universal variant.
	uniR, err := Join(rs, ss, Config{Eps: eps, Variant: UniR, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replicated() <= uniR.Replicated() {
		t.Fatalf("clone replicated %d <= UNI(R) %d", res.Replicated(), uniR.Replicated())
	}
	if Clone.String() != "clone+refpoint" {
		t.Fatal("variant name broken")
	}
}
