package sedonasim

import (
	"math/rand"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/sample"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/tuple"
)

// Config and Join run the scheme on the core orchestrator, one-shot.
type Config = core.Config

func Join(rs, ss []tuple.Tuple, cfg Config) (*core.Result, error) {
	cfg.Scheme = Scheme
	return core.Join(rs, ss, cfg)
}

func gaussian(rng *rand.Rand, n int, base int64) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	centers := []geom.Point{{X: 12, Y: 12}, {X: 35, Y: 20}, {X: 20, Y: 38}}
	for i := range out {
		c := centers[rng.Intn(len(centers))]
		out[i] = tuple.Tuple{
			ID: base + int64(i),
			Pt: geom.Point{X: c.X + rng.NormFloat64()*5, Y: c.Y + rng.NormFloat64()*5},
		}
	}
	return out
}

func TestMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	eps := 0.9
	for trial, sizes := range [][2]int{{4000, 3000}, {2000, 5000}, {3000, 3000}} {
		rs := gaussian(rng, sizes[0], 0)
		ss := gaussian(rng, sizes[1], 1_000_000)
		var want sweep.Counter
		sweep.NestedLoop(rs, ss, eps, want.Emit)
		res, err := Join(rs, ss, Config{Eps: eps, Workers: 4, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Results != want.N || res.Checksum != want.Checksum {
			t.Fatalf("sizes %v: results %d/%x, want %d/%x", sizes, res.Results, res.Checksum, want.N, want.Checksum)
		}
	}
}

func TestOnlySmallerSetReplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rs := gaussian(rng, 1000, 0)
	ss := gaussian(rng, 4000, 1_000_000)
	res, err := Join(rs, ss, Config{Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	// R is smaller: it is the replicated side, S is uniquely assigned.
	if res.ReplicatedS != 0 {
		t.Fatalf("indexed set replicated: %d", res.ReplicatedS)
	}
	// Swap roles.
	res, err = Join(ss, rs, Config{Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplicatedR != 0 {
		t.Fatalf("indexed set replicated after swap: %d", res.ReplicatedR)
	}
}

func TestPartitionerExposedAndAdaptive(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	rs := gaussian(rng, 5000, 0)
	smp := sample.Reservoir(rs, targetSampleSize(len(rs), 0.2), 0)
	bounds, err := core.DataBounds(nil, rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	qt := buildPartitioner(smp, bounds, 32)
	if qt.NumLeaves() < 4 {
		t.Fatalf("partitioner has %d leaves, expected a real split", qt.NumLeaves())
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
	rng := rand.New(rand.NewSource(33))
	rs := gaussian(rng, 400, 0)
	ss := gaussian(rng, 400, 1_000_000)
	res, err := Join(rs, ss, Config{Eps: 1.5, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(res.Pairs)) != res.Results {
		t.Fatalf("collected %d, counted %d", len(res.Pairs), res.Results)
	}
}

func TestMoveNativeFirst(t *testing.T) {
	ids := []int{5, 3, 9}
	out := moveNativeFirst(ids, 9)
	if out[0] != 9 {
		t.Fatalf("native not first: %v", out)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("missing native leaf must panic")
		}
	}()
	moveNativeFirst([]int{1, 2}, 7)
}

// TestDecimalOffsetLattice joins two (ε/2)-lattices at origin 0.1 with
// ε = 2.5, where pairs at distance exactly ε sit on the edge of the
// probe square and x ± ε rounds inward (2.6 − 2.5 rounds above 0.1):
// the R-tree probe must still reach every pair the closed test accepts.
func TestDecimalOffsetLattice(t *testing.T) {
	const eps, origin = 2.5, 0.1
	lattice := func(base int64) []tuple.Tuple {
		var out []tuple.Tuple
		for i := 0; i < 16; i++ {
			for j := 0; j < 16; j++ {
				pt := geom.Point{X: origin + float64(i)*eps/2, Y: origin + float64(j)*eps/2}
				out = append(out, tuple.Tuple{ID: base + int64(len(out)), Pt: pt})
			}
		}
		return out
	}
	rs, ss := lattice(0), lattice(1_000_000)
	var want sweep.Counter
	sweep.NestedLoop(rs, ss, eps, want.Emit)
	for _, workers := range []int{1, 4} {
		res, err := Join(rs, ss, Config{Eps: eps, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Results != want.N || res.Checksum != want.Checksum {
			t.Errorf("workers %d: results %d/%x, nested loop %d/%x", workers, res.Results, res.Checksum, want.N, want.Checksum)
		}
	}
}
