package spatialjoin

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/twolayer"
)

// permuted returns a shuffled copy of ts.
func permuted[T any](rng *rand.Rand, ts []T) []T {
	out := slices.Clone(ts)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestPlanIgnoresInputOrder: a plan is a function of the data, not of
// its order. Sampling decides membership by tuple id (sample.Keep), so
// permuting both inputs leaves every counter of every join unchanged:
// the same statistics, the same graph of agreements, the same
// replication, shuffle and partition costs, the same pairs.
//
// SedonaLike is excluded on purpose: its quadtree partitioner is built
// from a fixed-size reservoir sample, which picks positions, and moving
// that baseline's sample would move the paper-shape gate it anchors
// (internal/experiments TestPaperShapes, Fig 10).
func TestPlanIgnoresInputOrder(t *testing.T) {
	algos := []Algorithm{AdaptiveLPiB, AdaptiveDIFF, AdaptiveSimpleDedup, AutoPlanned, PBSMUniR, PBSMUniS, PBSMEpsGrid, PBSMClone}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rs, ss := GenerateTigerLike(3000, 10*seed), GenerateGaussian(3000, 10*seed+1)
		pr, ps := permuted(rng, rs), permuted(rng, ss)
		base := Options{Eps: 0.6, Seed: seed, Workers: 4, Partitions: 16}
		// same runs one join on the inputs in order and permuted.
		same := func(what string, run func(perm bool) (*Report, error)) {
			t.Helper()
			a, err := run(false)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, what, err)
			}
			b, err := run(true)
			if err != nil {
				t.Fatalf("seed %d %s permuted: %v", seed, what, err)
			}
			if countersOf(a) != countersOf(b) {
				t.Errorf("seed %d %s: input order moved the plan\n in order %+v\n permuted %+v", seed, what, countersOf(a), countersOf(b))
			}
		}
		points := func(perm bool) ([]Tuple, []Tuple) {
			if perm {
				return pr, ps
			}
			return rs, ss
		}
		for _, a := range algos {
			for _, lpt := range []bool{false, true} {
				if lpt && a != AdaptiveLPiB {
					continue
				}
				o := base
				o.Algorithm, o.UseLPT = a, lpt
				same(fmt.Sprintf("Join %v (LPT %v)", a, lpt), func(perm bool) (*Report, error) {
					r, s := points(perm)
					return Join(r, s, o)
				})
			}
			if supportsSelfJoin(a) {
				o := base
				o.Algorithm = a
				same(fmt.Sprintf("SelfJoin %v", a), func(perm bool) (*Report, error) {
					r, _ := points(perm)
					return SelfJoin(r, o)
				})
			}
		}

		ro, so := randomMixedObjects(rng, 1500, 0), randomMixedObjects(rng, 1500, 1_000_000)
		pro, pso := permuted(rng, ro), permuted(rng, so)
		for _, a := range []Algorithm{AdaptiveLPiB, AdaptiveDIFF} {
			o := base
			o.Algorithm = a
			same("JoinObjects "+a.String(), func(perm bool) (*Report, error) {
				r, s := ro, so
				if perm {
					r, s = pro, pso
				}
				rep, err := JoinObjects(r, s, o)
				if err != nil {
					return nil, err
				}
				return rep.Report, nil
			})
		}

		// The two-layer engine samples MBRs for its tile pick; with more
		// than its 1,024-MBR cap on both sides it must pick the same
		// tiles and replicate the same objects whatever the order.
		tr, ts := randomMixedObjects(rng, 2500, 0), randomMixedObjects(rng, 2500, 1_000_000)
		ptr, pts := permuted(rng, tr), permuted(rng, ts)
		for _, pred := range []extgeom.Predicate{extgeom.Intersects, extgeom.WithinDistance} {
			run := func(r, s []extgeom.Object) (twolayer.TileGrid, goldenCounters) {
				plan, err := twolayer.Prepare(twolayer.Config{R: r, S: s, Pred: pred, Eps: 0.4, Workers: 4, Partitions: 16})
				if err != nil {
					t.Fatalf("seed %d two-layer %v: %v", seed, pred, err)
				}
				res, err := plan.Execute(context.Background(), twolayer.ExecOptions{})
				if err != nil {
					t.Fatalf("seed %d two-layer %v: %v", seed, pred, err)
				}
				return plan.Grid, countersOf(report(AdaptiveLPiB, res.Metrics, nil))
			}
			ga, ca := run(tr, ts)
			gb, cb := run(ptr, pts)
			if ga.NX != gb.NX || ga.NY != gb.NY || ca != cb {
				t.Errorf("seed %d two-layer %v: input order moved the plan\n in order %d×%d %+v\n permuted %d×%d %+v",
					seed, pred, ga.NX, ga.NY, ca, gb.NX, gb.NY, cb)
			}
		}
	}
}
