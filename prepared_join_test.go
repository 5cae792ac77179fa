package spatialjoin

import (
	"sync"
	"testing"
)

// TestPreparedJoinMatchesJoin: for every algorithm, Prepare +
// repeated Execute must reproduce the one-shot Join bit for bit.
func TestPreparedJoinMatchesJoin(t *testing.T) {
	rs := GenerateTigerLike(4000, 11)
	ss := GenerateGaussian(4000, 12)
	algos := []Algorithm{
		AdaptiveLPiB, AdaptiveDIFF, AdaptiveSimpleDedup,
		PBSMUniR, PBSMUniS, PBSMEpsGrid, PBSMClone, AutoPlanned, SedonaLike,
	}
	for _, a := range algos {
		t.Run(a.String(), func(t *testing.T) {
			opt := Options{Eps: 0.6, Algorithm: a, Seed: 3}
			want, err := Join(rs, ss, opt)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Prepare(rs, ss, opt)
			if err != nil {
				t.Fatal(err)
			}
			if a == AutoPlanned && p.Algorithm() == AutoPlanned {
				t.Fatal("AutoPlanned must resolve to a concrete strategy")
			}
			if p.Eps() != 0.6 {
				t.Fatalf("plan eps %v", p.Eps())
			}
			if p.FootprintBytes() <= 0 {
				t.Fatalf("footprint %d", p.FootprintBytes())
			}
			for i := 0; i < 2; i++ {
				got, err := p.Execute(ExecOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if got.Results != want.Results || got.Checksum != want.Checksum {
					t.Fatalf("execute %d: (%d, %#x) != join (%d, %#x)",
						i, got.Results, got.Checksum, want.Results, want.Checksum)
				}
			}
		})
	}
}

// TestPreparedJoinEpsResweep: executing a plan with a smaller ε must
// match a from-scratch join at that ε (same grid regime), and a larger ε
// must be rejected. A Sedona plan is one more: its circle replication at
// the plan's ε reaches every leaf a smaller circle does.
func TestPreparedJoinEpsResweep(t *testing.T) {
	rs := GenerateUniform(3000, 21)
	ss := GenerateUniform(3000, 22)
	want := BruteForce(rs, ss, 0.5)
	for _, a := range []Algorithm{AdaptiveLPiB, SedonaLike} {
		p, err := Prepare(rs, ss, Options{Eps: 0.8, Algorithm: a})
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Execute(ExecOptions{Eps: 0.5, Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		if int(got.Results) != len(want) {
			t.Fatalf("%v: re-sweep at 0.5 found %d pairs, oracle %d", a, got.Results, len(want))
		}
		if len(got.Pairs) != len(want) {
			t.Fatalf("%v: collected %d pairs, oracle %d", a, len(got.Pairs), len(want))
		}
		if _, err := p.Execute(ExecOptions{Eps: 0.9}); err == nil {
			t.Fatalf("%v: eps above the plan's threshold must be rejected", a)
		}
	}
}

// TestPreparedJoinConcurrent executes one plan from many goroutines;
// under -race this proves Execute shares no mutable state.
func TestPreparedJoinConcurrent(t *testing.T) {
	rs := GenerateGaussian(3000, 31)
	ss := GenerateTigerLike(3000, 32)
	p, err := Prepare(rs, ss, Options{Eps: 0.5, UseLPT: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.Execute(ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := p.Execute(ExecOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			if got.Checksum != base.Checksum {
				t.Errorf("checksum diverged: %#x != %#x", got.Checksum, base.Checksum)
			}
		}()
	}
	wg.Wait()
}
