package sample

import (
	"math"
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/tuple"
)

func tuples(n int) []tuple.Tuple {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i), Y: float64(i)}
	}
	return tuple.FromPoints(pts, 0)
}

func TestBernoulliFractionApproximate(t *testing.T) {
	ts := tuples(100_000)
	got := Bernoulli(ts, 0.03, 1)
	want := 3000.0
	if math.Abs(float64(len(got))-want) > want*0.2 {
		t.Fatalf("3%% sample of 100k = %d tuples, want about 3000", len(got))
	}
}

func TestBernoulliDeterministic(t *testing.T) {
	ts := tuples(10_000)
	a := Bernoulli(ts, 0.1, 99)
	b := Bernoulli(ts, 0.1, 99)
	if len(a) != len(b) {
		t.Fatalf("same seed, different sample sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("same seed, different sample content at %d", i)
		}
	}
	c := Bernoulli(ts, 0.1, 100)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i].ID != c[i].ID {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical samples (vanishingly unlikely)")
	}
}

func TestBernoulliEdgeFractions(t *testing.T) {
	ts := tuples(100)
	if got := Bernoulli(ts, 0, 1); got != nil {
		t.Errorf("fraction 0 should sample nothing, got %d", len(got))
	}
	if got := Bernoulli(ts, -1, 1); got != nil {
		t.Errorf("negative fraction should sample nothing, got %d", len(got))
	}
	if got := Bernoulli(ts, 1, 1); len(got) != 100 {
		t.Errorf("fraction 1 should keep everything, got %d", len(got))
	}
	if got := Bernoulli(ts, 1e300, 1); len(got) != 100 {
		t.Errorf("fraction 1e300 should keep everything, got %d", len(got))
	}
	if got := Bernoulli(nil, 0.5, 1); got != nil {
		t.Errorf("empty input should sample nothing, got %d", len(got))
	}
}

func TestReservoirSize(t *testing.T) {
	ts := tuples(1000)
	if got := Reservoir(ts, 50, 1); len(got) != 50 {
		t.Errorf("reservoir size = %d, want 50", len(got))
	}
	if got := Reservoir(ts, 5000, 1); len(got) != 1000 {
		t.Errorf("k > n should return all, got %d", len(got))
	}
	if got := Reservoir(ts, 0, 1); got != nil {
		t.Errorf("k=0 should return nil, got %d", len(got))
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Every element should appear with probability k/n across many seeds.
	ts := tuples(100)
	const k, trials = 10, 2000
	counts := make([]int, len(ts))
	for seed := int64(0); seed < trials; seed++ {
		for _, tu := range Reservoir(ts, k, seed) {
			counts[tu.ID]++
		}
	}
	want := float64(trials) * float64(k) / float64(len(ts))
	for id, c := range counts {
		if math.Abs(float64(c)-want) > want*0.5 {
			t.Fatalf("element %d sampled %d times, want about %.0f", id, c, want)
		}
	}
}

func TestScaleFactor(t *testing.T) {
	if got := ScaleFactor(0.03); math.Abs(got-1/0.03) > 1e-12 {
		t.Errorf("ScaleFactor(0.03) = %v", got)
	}
	if ScaleFactor(0) != 0 || ScaleFactor(-2) != 0 {
		t.Error("non-positive fractions must scale to 0")
	}
	if ScaleFactor(1) != 1 || ScaleFactor(2) != 1 {
		t.Error("fractions >= 1 must scale to 1")
	}
}

// TestKeepRate: the rule keeps about fraction of consecutive ids (the
// ids real inputs carry) at every seed, and seeds s and s+1 — the R and
// S samples of one plan — draw nearly independent samples.
func TestKeepRate(t *testing.T) {
	const n = 200_000
	for _, f := range []float64{0.001, 0.03, 0.5, 0.97} {
		for seed := int64(0); seed < 4; seed++ {
			kept, both := 0, 0
			for id := int64(0); id < n; id++ {
				a, b := Keep(id, f, seed), Keep(id, f, seed+1)
				if a {
					kept++
				}
				if a && b {
					both++
				}
			}
			// Five binomial standard deviations.
			tol := 5 * math.Sqrt(n*f*(1-f))
			if d := math.Abs(float64(kept) - n*f); d > tol {
				t.Errorf("f=%v seed=%d: kept %d of %d, want %.0f ± %.0f", f, seed, kept, n, n*f, tol)
			}
			if d := math.Abs(float64(both) - n*f*f); d > 5*math.Sqrt(n*f*f)+1 {
				t.Errorf("f=%v seed=%d: %d ids in both seeds' samples, want about %.0f", f, seed, both, n*f*f)
			}
		}
	}
	if Keep(7, 0, 1) || Keep(7, -1, 1) || Keep(7, math.NaN(), 1) || !Keep(7, 1, 1) || !Keep(7, 2, 1) {
		t.Error("fractions <= 0 (or NaN) must keep nothing and >= 1 everything")
	}
}

// TestBernoulliIgnoresOrder: a permuted input yields the same sample set,
// because membership is decided by id alone.
func TestBernoulliIgnoresOrder(t *testing.T) {
	ts := tuples(10_000)
	want := map[int64]bool{}
	for _, tu := range Bernoulli(ts, 0.05, 3) {
		want[tu.ID] = true
	}
	rev := make([]tuple.Tuple, len(ts))
	for i := range ts {
		rev[len(ts)-1-i] = ts[i]
	}
	got := Bernoulli(rev, 0.05, 3)
	if len(got) != len(want) {
		t.Fatalf("reversed input sampled %d tuples, want %d", len(got), len(want))
	}
	for _, tu := range got {
		if !want[tu.ID] {
			t.Fatalf("reversed input sampled id %d, which the forward sample lacks", tu.ID)
		}
	}
}
