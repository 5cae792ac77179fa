package spatialjoin

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"spatialjoin/internal/cluster"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/algorithm_counters.json from this run")

const goldenPath = "testdata/algorithm_counters.json"

// goldenCounters are the deterministic quantities of one join: they
// depend on the inputs, ε, the seed and the fixed Workers/Partitions,
// never on GOMAXPROCS, timing or the engine.
type goldenCounters struct {
	Results          int64
	Checksum         uint64
	ReplicatedR      int64
	ReplicatedS      int64
	ShuffledBytes    int64
	CandidatePairs   int64
	MaxPartitionCost int64
}

func countersOf(r *Report) goldenCounters {
	return goldenCounters{
		Results: r.Results, Checksum: r.Checksum,
		ReplicatedR: r.ReplicatedR, ReplicatedS: r.ReplicatedS,
		ShuffledBytes: r.ShuffledBytes, CandidatePairs: r.CandidatePairs,
		MaxPartitionCost: r.MaxPartitionCost,
	}
}

// latticePoints draws n points of the ε/2 lattice over [0, 16]²: with
// ε = 0.5 every coordinate is a multiple of 0.25, so many pairs lie at
// distance exactly ε and many points sit exactly on cell borders and
// corners of the ε- and 2ε-grids.
func latticePoints(rng *rand.Rand, n int, base int64) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{ID: base + int64(i), Pt: Point{X: float64(rng.Intn(65)) * 0.25, Y: float64(rng.Intn(65)) * 0.25}}
	}
	return out
}

// startLoopbackCluster brings up a coordinator and two in-process
// workers on a loopback port and returns its engine.
func startLoopbackCluster(t *testing.T) Engine {
	t.Helper()
	coord, err := cluster.Listen("127.0.0.1:0", cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A worker returns when the context is cancelled or the
			// coordinator goes away; both are the shutdown path here.
			_ = cluster.RunWorker(ctx, coord.Addr().String(), cluster.WorkerOptions{
				Name: fmt.Sprintf("w%d", i), Parallel: 1,
			})
		}(i)
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		coord.Close()
	})
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := coord.WaitForWorkers(wctx, 2); err != nil {
		t.Fatal(err)
	}
	return coord.Engine()
}

// TestAlgorithmCountersGolden pins every deterministic counter of every
// algorithm — two-set join, self-join and object join, on the local
// engine and on a 2-worker loopback cluster — to the values recorded
// before the orchestrators were merged. Regenerate with -update-golden
// only when a change is meant to move them.
//
// The pins are an equality oracle, not a correctness one: on the lattice
// the adaptive rows (LPiB, DIFF, LPiB+dedup) report fewer pairs than
// BruteForce and the PBSM rows, because grid.Classify puts a point on a
// cell's exact centre line (u = ε with a 2ε tile) in one strip only. The
// differential-vs-BruteForce tests use inputs off that measure-zero set.
func TestAlgorithmCountersGolden(t *testing.T) {
	type pointSet struct {
		name   string
		r, s   []Tuple
		eps    float64
		bounds *Rect
	}
	rng := rand.New(rand.NewSource(5))
	latticeBounds := Rect{MinX: 0, MinY: 0, MaxX: 16, MaxY: 16}
	sets := []pointSet{
		{"skew", GenerateTigerLike(6000, 11), GenerateGaussian(6000, 12), 0.5, nil},
		{"lattice", latticePoints(rng, 3000, 0), latticePoints(rng, 3000, 1_000_000), 0.5, &latticeBounds},
	}
	type algoRow struct {
		name string
		algo Algorithm
		lpt  bool
	}
	joinRows := []algoRow{
		{"LPiB", AdaptiveLPiB, false}, {"LPiB+LPT", AdaptiveLPiB, true}, {"DIFF", AdaptiveDIFF, false},
		{"UNI(R)", PBSMUniR, false}, {"UNI(S)", PBSMUniS, false}, {"eps-grid", PBSMEpsGrid, false},
		{"Sedona", SedonaLike, false}, {"LPiB+dedup", AdaptiveSimpleDedup, false},
		{"clone+refpoint", PBSMClone, false}, {"auto", AutoPlanned, false},
	}
	selfRows := []algoRow{
		{"LPiB", AdaptiveLPiB, false}, {"DIFF", AdaptiveDIFF, false},
		{"UNI(R)", PBSMUniR, false}, {"UNI(S)", PBSMUniS, false}, {"eps-grid", PBSMEpsGrid, false},
		{"clone+refpoint", PBSMClone, false}, {"Sedona", SedonaLike, false},
	}

	got := map[string]goldenCounters{}
	record := func(key string, rep *Report, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		got[key] = countersOf(rep)
	}
	engines := []struct {
		name string
		eng  Engine
	}{{"local", nil}, {"cluster", startLoopbackCluster(t)}}
	for _, e := range engines {
		for _, ps := range sets {
			opt := Options{Eps: ps.eps, Workers: 4, Partitions: 32, Seed: 7, Bounds: ps.bounds, Engine: e.eng}
			for _, row := range joinRows {
				if row.algo == SedonaLike && e.eng != nil {
					continue // no wire description for its kernel
				}
				o := opt
				o.Algorithm, o.UseLPT = row.algo, row.lpt
				rep, err := Join(ps.r, ps.s, o)
				record(fmt.Sprintf("%s/join/%s/%s", e.name, ps.name, row.name), rep, err)
			}
			for _, row := range selfRows {
				if row.algo == SedonaLike && e.eng != nil {
					continue
				}
				o := opt
				o.Algorithm = row.algo
				rep, err := SelfJoin(ps.r, o)
				record(fmt.Sprintf("%s/self/%s/%s", e.name, ps.name, row.name), rep, err)
			}
		}
	}
	// Object joins run their refine kernel in-process only.
	orng := rand.New(rand.NewSource(9))
	ro := randomMixedObjects(orng, 600, 0)
	so := randomMixedObjects(orng, 600, 1_000_000)
	for _, row := range []algoRow{{"LPiB", AdaptiveLPiB, false}, {"DIFF", AdaptiveDIFF, false}, {"UNI(R)", PBSMUniR, false}, {"UNI(S)", PBSMUniS, false}} {
		rep, err := JoinObjects(ro, so, Options{Eps: 0.75, Algorithm: row.algo, Workers: 4, Partitions: 32, Seed: 7})
		if err != nil {
			t.Fatalf("objects/%s: %v", row.name, err)
		}
		got["local/objects/"+row.name] = countersOf(rep.Report)
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]goldenCounters{}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: pinned, but this run did not produce it", key)
		} else if g != w {
			t.Errorf("%s:\n got %+v\nwant %+v", key, g, w)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: produced, but not pinned in %s", key, goldenPath)
		}
	}
}
