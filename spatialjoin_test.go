package spatialjoin

import (
	"sort"
	"strings"
	"testing"
)

func allAlgorithms() []Algorithm {
	return []Algorithm{
		AdaptiveLPiB, AdaptiveDIFF, PBSMUniR, PBSMUniS, PBSMEpsGrid,
		SedonaLike, AdaptiveSimpleDedup, PBSMClone,
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	r := GenerateTigerLike(5000, 1)
	s := GenerateGaussian(5000, 2)
	eps := 0.6

	var baseline *Report
	for _, algo := range allAlgorithms() {
		rep, err := Join(r, s, Options{Eps: eps, Algorithm: algo, Workers: 4, Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if baseline == nil {
			baseline = rep
			continue
		}
		if rep.Results != baseline.Results || rep.Checksum != baseline.Checksum {
			t.Fatalf("%v: results %d/%x disagree with %v: %d/%x",
				algo, rep.Results, rep.Checksum, baseline.Algorithm, baseline.Results, baseline.Checksum)
		}
	}
	if baseline.Results == 0 {
		t.Fatal("workload produced no results; the agreement test is vacuous")
	}
}

func TestJoinMatchesBruteForce(t *testing.T) {
	r := GenerateUniform(800, 3)
	s := GenerateGaussian(800, 4)
	eps := 1.2
	want := BruteForce(r, s, eps)
	rep, err := Join(r, s, Options{Eps: eps, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pairs) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(rep.Pairs), len(want))
	}
	sortPairs(rep.Pairs)
	sortPairs(want)
	for i := range want {
		if rep.Pairs[i] != want[i] {
			t.Fatalf("pair %d: %v vs %v", i, rep.Pairs[i], want[i])
		}
	}
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].RID != ps[j].RID {
			return ps[i].RID < ps[j].RID
		}
		return ps[i].SID < ps[j].SID
	})
}

func TestAdaptiveBeatsUniversalReplicationOnSkew(t *testing.T) {
	r := GenerateTigerLike(30_000, 5)
	s := GenerateGaussian(30_000, 6)
	eps := 0.5

	adaptive, err := Join(r, s, Options{Eps: eps, Algorithm: AdaptiveLPiB, SampleFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	uniR, err := Join(r, s, Options{Eps: eps, Algorithm: PBSMUniR})
	if err != nil {
		t.Fatal(err)
	}
	uniS, err := Join(r, s, Options{Eps: eps, Algorithm: PBSMUniS})
	if err != nil {
		t.Fatal(err)
	}
	best := uniR.Replicated()
	if uniS.Replicated() < best {
		best = uniS.Replicated()
	}
	if adaptive.Replicated() >= best {
		t.Fatalf("adaptive replicated %d, best universal %d", adaptive.Replicated(), best)
	}
	t.Logf("replication: LPiB=%d UNI(R)=%d UNI(S)=%d (%.1fx saving)",
		adaptive.Replicated(), uniR.Replicated(), uniS.Replicated(),
		float64(best)/float64(adaptive.Replicated()))
}

func TestReportDerivedQuantities(t *testing.T) {
	r := GenerateUniform(2000, 8)
	s := GenerateUniform(2000, 9)
	rep, err := Join(r, s, Options{Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalTime() <= 0 || rep.ConstructionTime() <= 0 {
		t.Fatal("times must be positive")
	}
	if rep.TotalTime() < rep.ConstructionTime() {
		t.Fatal("total < construction")
	}
	sel := rep.Selectivity(2000, 2000)
	if sel <= 0 || sel > 1 {
		t.Fatalf("selectivity = %v", sel)
	}
	if rep.Selectivity(0, 10) != 0 {
		t.Fatal("empty input selectivity must be 0")
	}
	if rep.ShuffleRemoteBytes > rep.ShuffledBytes {
		t.Fatal("remote bytes exceed shuffled bytes")
	}
}

func TestAlgorithmNames(t *testing.T) {
	want := map[Algorithm]string{
		AdaptiveLPiB:        "LPiB",
		AdaptiveDIFF:        "DIFF",
		PBSMUniR:            "UNI(R)",
		PBSMUniS:            "UNI(S)",
		PBSMEpsGrid:         "eps-grid",
		SedonaLike:          "Sedona",
		AdaptiveSimpleDedup: "LPiB+dedup",
		PBSMClone:           "clone+refpoint",
	}
	for a, name := range want {
		if a.String() != name {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), name)
		}
	}
	if Algorithm(99).String() == "" {
		t.Error("unknown algorithm must still print")
	}
	// The wire names parse case-insensitively, "" is the default, and an
	// unknown name's error lists every valid one.
	for name, want := range map[string]Algorithm{
		"": AdaptiveLPiB, "LPiB": AdaptiveLPiB, "diff": AdaptiveDIFF, "uni-r": PBSMUniR,
		"UNI-S": PBSMUniS, "eps-grid": PBSMEpsGrid, "sedona": SedonaLike,
		"lpib-dedup": AdaptiveSimpleDedup, "clone": PBSMClone, "Auto": AutoPlanned,
	} {
		if got, err := ParseAlgorithm(name); err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	_, err := ParseAlgorithm("disk")
	if err == nil || !strings.Contains(err.Error(), "lpib, diff, uni-r, uni-s, eps-grid, sedona, lpib-dedup, clone, auto") {
		t.Errorf("unknown name: %v", err)
	}
}

func TestJoinValidation(t *testing.T) {
	if _, err := Join(nil, nil, Options{Eps: 0}); err == nil {
		t.Error("expected error for eps=0")
	}
	if _, err := Join(nil, nil, Options{Eps: 1, Algorithm: Algorithm(99)}); err == nil {
		t.Error("expected error for unknown algorithm")
	}
}

func TestGenerateHelpers(t *testing.T) {
	w := World()
	for name, ts := range map[string][]Tuple{
		"uniform": GenerateUniform(500, 1),
		"gauss":   GenerateGaussian(500, 2),
		"tiger":   GenerateTigerLike(500, 3),
		"osm":     GenerateOSMLike(500, 4),
	} {
		if len(ts) != 500 {
			t.Fatalf("%s: len %d", name, len(ts))
		}
		for _, tu := range ts {
			if !w.Contains(tu.Pt) {
				t.Fatalf("%s: point outside world", name)
			}
		}
	}
	pts := []Point{{X: 1, Y: 2}}
	if got := FromPoints(pts, 5); got[0].ID != 5 {
		t.Fatal("FromPoints base id broken")
	}
	padded := WithPayloads(FromPoints(pts, 0), 64)
	if len(padded[0].Payload) != 64 {
		t.Fatal("WithPayloads broken")
	}
}

func TestFileRoundTripViaFacade(t *testing.T) {
	dir := t.TempDir()
	ts := GenerateUniform(100, 11)
	path := dir + "/pts.txt"
	if err := WriteFile(path, ts); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ts) {
		t.Fatalf("round trip: %d vs %d", len(back), len(ts))
	}
	for i := range ts {
		if back[i].Pt != ts[i].Pt {
			t.Fatalf("point %d: %v vs %v", i, back[i].Pt, ts[i].Pt)
		}
	}
}

func TestTupleSizeGrowsShuffle(t *testing.T) {
	r := GenerateGaussian(10_000, 12)
	s := GenerateGaussian(10_000, 13)
	slim, err := Join(r, s, Options{Eps: 0.5, Algorithm: PBSMUniR})
	if err != nil {
		t.Fatal(err)
	}
	fat, err := Join(WithPayloads(r, 256), WithPayloads(s, 256), Options{Eps: 0.5, Algorithm: PBSMUniR})
	if err != nil {
		t.Fatal(err)
	}
	if fat.ShuffledBytes <= slim.ShuffledBytes {
		t.Fatal("payloads did not grow shuffle volume")
	}
	if fat.Results != slim.Results || fat.Checksum != slim.Checksum {
		t.Fatal("payloads changed join results")
	}
}

func TestAutoPlannedJoin(t *testing.T) {
	r := GenerateTigerLike(8000, 1)
	s := GenerateGaussian(8000, 2)
	auto, err := Join(r, s, Options{Eps: 0.6, Algorithm: AutoPlanned, SampleFraction: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Join(r, s, Options{Eps: 0.6, Algorithm: AdaptiveLPiB, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Results != want.Results || auto.Checksum != want.Checksum {
		t.Fatalf("auto join results %d/%x, want %d/%x", auto.Results, auto.Checksum, want.Results, want.Checksum)
	}
	// The resolved algorithm is reported, never AutoPlanned itself.
	if auto.Algorithm == AutoPlanned {
		t.Fatal("report must carry the resolved algorithm")
	}
	// On this skewed workload the planner must pick the adaptive strategy.
	if auto.Algorithm != AdaptiveLPiB {
		t.Fatalf("planner picked %v on skewed data", auto.Algorithm)
	}
	if _, err := Join(nil, nil, Options{Eps: 0, Algorithm: AutoPlanned}); err == nil {
		t.Fatal("auto join must validate eps")
	}
	if _, err := Join(nil, nil, Options{Eps: 1, Algorithm: AutoPlanned, GridRes: 1}); err == nil {
		t.Fatal("auto join must reject sub-2eps grids")
	}
}
