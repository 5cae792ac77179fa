package spatialjoin

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"spatialjoin/internal/obs"
	"spatialjoin/internal/tuple"
)

// everyAlgorithm is allAlgorithms plus AutoPlanned.
func everyAlgorithm() []Algorithm { return append(allAlgorithms(), AutoPlanned) }

func supportsSelfJoin(a Algorithm) bool {
	return a != AdaptiveSimpleDedup && a != AutoPlanned
}

// TestNonFinitePoint: a NaN or ±Inf coordinate in either input is an
// error naming the set and the row, never a panic and never a silent
// join — for every algorithm, with Bounds given (the map phase finds it)
// and derived (the MBR pass finds it). A finite point outside Bounds is
// not an error: it joins as before.
func TestNonFinitePoint(t *testing.T) {
	world := World()
	const badRow = 200 // in the second of two map splits
	for _, a := range everyAlgorithm() {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, set := range []tuple.Set{tuple.R, tuple.S} {
				for _, bounds := range []*Rect{&world, nil} {
					name := fmt.Sprintf("%v/%v/%v/bounds=%v", a, v, set, bounds != nil)
					rs, ss := GenerateUniform(300, 61), GenerateUniform(300, 62)
					bad := &rs[badRow]
					if set == tuple.S {
						bad = &ss[badRow]
					}
					if v > 0 {
						bad.Pt.Y = v
					} else {
						bad.Pt.X = v
					}
					_, err := Join(rs, ss, Options{Eps: 1, Algorithm: a, Bounds: bounds, Workers: 2})
					var nf *tuple.NonFiniteError
					if !errors.As(err, &nf) {
						t.Errorf("%s: err %v, want a non-finite point error", name, err)
						continue
					}
					if nf.Set != set || nf.Row != badRow || nf.ID != bad.ID {
						t.Errorf("%s: error names %v row %d (id %d), want %v row %d (id %d)", name, nf.Set, nf.Row, nf.ID, set, badRow, bad.ID)
					}
				}
			}
		}
		rs, ss := GenerateUniform(300, 61), GenerateUniform(300, 62)
		rs[badRow].Pt = Point{X: world.MaxX + 0.5, Y: 50}
		ss[badRow].Pt = Point{X: world.MaxX + 0.2, Y: 50.3}
		rep, err := Join(rs, ss, Options{Eps: 1, Algorithm: a, Bounds: &world, Workers: 2})
		if err != nil {
			t.Errorf("%v: a finite point outside Bounds: %v", a, err)
		} else if want := int64(len(BruteForce(rs, ss, 1))); rep.Results != want {
			t.Errorf("%v: a finite point outside Bounds: %d pairs, want %d", a, rep.Results, want)
		}
	}
}

// checkTraceAndPool asserts what every entry point owes a caller that
// passed Options.Trace and PoolSize 1: a plan span, task spans that name
// their worker, and no two tasks running at once.
func checkTraceAndPool(t *testing.T, tr *Tracer) {
	t.Helper()
	var tasks []obs.Span
	plans := 0
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case obs.SpanPlan, obs.SpanPartition:
			plans++
		case obs.SpanTask:
			if sp.Worker == "" {
				t.Errorf("task span %d has no worker id", sp.ID)
			}
			tasks = append(tasks, sp)
		}
	}
	if plans == 0 {
		t.Errorf("no plan/partition span among %d spans", tr.Len())
	}
	if len(tasks) == 0 {
		t.Fatalf("no task span among %d spans", tr.Len())
	}
	if len(tr.Tree()) != 1 {
		t.Errorf("trace has %d roots, want one tree", len(tr.Tree()))
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].Start < tasks[j].Start })
	for i := 1; i < len(tasks); i++ {
		if tasks[i].Start < tasks[i-1].Done {
			t.Fatalf("PoolSize 1: tasks %d and %d overlap in time", tasks[i-1].ID, tasks[i].ID)
		}
	}
}

// TestTraceAndPoolReachEveryEntryPoint: Options.Trace and Options.PoolSize
// are common fields, so every algorithm honours them through every entry
// point — Join, Prepare + Execute, SelfJoin and JoinObjects.
func TestTraceAndPoolReachEveryEntryPoint(t *testing.T) {
	rs := GenerateTigerLike(1500, 41)
	ss := GenerateGaussian(1500, 42)
	for _, a := range everyAlgorithm() {
		opt := Options{Eps: 0.6, Algorithm: a, Workers: 4, Partitions: 8, PoolSize: 1, Seed: 3}
		t.Run(a.String()+"/Join", func(t *testing.T) {
			o := opt
			o.Trace = NewTracer()
			if _, err := Join(rs, ss, o); err != nil {
				t.Fatal(err)
			}
			checkTraceAndPool(t, o.Trace)
		})
		t.Run(a.String()+"/PrepareExecute", func(t *testing.T) {
			o := opt
			o.Trace = NewTracer()
			root := o.Trace.Start(0, obs.SpanJoin)
			o.TraceParent = root.SpanID()
			p, err := Prepare(rs, ss, o)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Execute(ExecOptions{}); err != nil {
				t.Fatal(err)
			}
			root.End()
			checkTraceAndPool(t, o.Trace)
		})
		if !supportsSelfJoin(a) {
			continue
		}
		t.Run(a.String()+"/SelfJoin", func(t *testing.T) {
			o := opt
			o.Trace = NewTracer()
			if _, err := SelfJoin(rs, o); err != nil {
				t.Fatal(err)
			}
			checkTraceAndPool(t, o.Trace)
		})
	}
	t.Run("JoinObjects", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		ro := randomMixedObjects(rng, 300, 0)
		so := randomMixedObjects(rng, 300, 1_000_000)
		tr := NewTracer()
		if _, err := JoinObjects(ro, so, Options{Eps: 0.8, Workers: 4, Partitions: 8, PoolSize: 1, Trace: tr}); err != nil {
			t.Fatal(err)
		}
		checkTraceAndPool(t, tr)
	})
}

// TestHostileEps: a non-finite ε, or one so small the grid would need
// more cells than a plan may have, is an error from every algorithm and
// entry point — never a panic, a silent empty result or a giant
// allocation. An ε at or beyond the world's extent is a valid join of
// everything with everything.
func TestHostileEps(t *testing.T) {
	rs := GenerateUniform(300, 51)
	ss := GenerateUniform(300, 52)
	world := World()
	for _, a := range everyAlgorithm() {
		for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e-12, 1e-3} {
			name := fmt.Sprintf("%v/eps=%v", a, eps)
			opt := Options{Eps: eps, Algorithm: a, Bounds: &world, Workers: 2}
			if a == SedonaLike && eps > 0 && !math.IsInf(eps, 0) {
				// No grid: quadtree leaves are bounded by the sample, so a
				// tiny finite ε is simply a join with few results.
				if _, err := Join(rs, ss, opt); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				continue
			}
			if _, err := Join(rs, ss, opt); err == nil {
				t.Errorf("%s: Join accepted it", name)
			}
			if _, err := Prepare(rs, ss, opt); err == nil {
				t.Errorf("%s: Prepare accepted it", name)
			}
			if supportsSelfJoin(a) {
				if _, err := SelfJoin(rs, opt); err == nil {
					t.Errorf("%s: SelfJoin accepted it", name)
				}
			}
		}
		for _, eps := range []float64{world.Width(), 4 * world.Width()} {
			rep, err := Join(rs, ss, Options{Eps: eps * math.Sqrt2, Algorithm: a, Bounds: &world, Workers: 2})
			if err != nil {
				t.Errorf("%v/eps=%v: %v", a, eps, err)
			} else if rep.Results != int64(len(rs)*len(ss)) {
				t.Errorf("%v/eps=%v: %d pairs, want all %d", a, eps, rep.Results, len(rs)*len(ss))
			}
		}
	}
	if _, err := JoinObjects([]Object{NewPointObject(1, Point{X: 1, Y: 1})}, nil, Options{Eps: math.NaN()}); err == nil {
		t.Error("JoinObjects accepted eps=NaN")
	}
}

// TestHostileParallelism: a workers or partitions count past the
// engine's bounds, or a workers × cells product past its budget, is an
// error from every algorithm and entry point — never a goroutine per
// requested worker or a per-worker table of a million cells each.
func TestHostileParallelism(t *testing.T) {
	rs := GenerateUniform(300, 51)
	ss := GenerateUniform(300, 52)
	world := World()
	const huge = 2_000_000_000
	for _, a := range everyAlgorithm() {
		opts := []Options{
			{Eps: 0.5, Workers: huge},
			{Eps: 0.5, Partitions: huge},
			{Eps: 0.5, Partitions: huge, UseLPT: true},
		}
		if a != SedonaLike { // gridless: its cells are quadtree leaves
			// 0.1-wide cells over the 100 × 100 world: a million cells.
			opts = append(opts, Options{Eps: 0.05, Workers: 1000, Bounds: &world})
		}
		for _, opt := range opts {
			opt.Algorithm = a
			name := fmt.Sprintf("%v/workers=%d/partitions=%d/eps=%v", a, opt.Workers, opt.Partitions, opt.Eps)
			if _, err := Join(rs, ss, opt); err == nil {
				t.Errorf("%s: Join accepted it", name)
			}
			if _, err := Prepare(rs, ss, opt); err == nil {
				t.Errorf("%s: Prepare accepted it", name)
			}
			if supportsSelfJoin(a) {
				if _, err := SelfJoin(rs, opt); err == nil {
					t.Errorf("%s: SelfJoin accepted it", name)
				}
			}
		}
	}
	obj := []Object{NewPointObject(1, Point{X: 1, Y: 1})}
	for _, opt := range []Options{{Eps: 0.5, Workers: huge}, {Eps: 0.5, Partitions: huge}} {
		if _, err := JoinObjects(obj, obj, opt); err == nil {
			t.Errorf("JoinObjects accepted workers=%d partitions=%d", opt.Workers, opt.Partitions)
		}
	}
}

// TestAutoPlannedSamplesOnce: AutoPlanned is built as the algorithm it
// reports, so the report is that algorithm's field for field and the
// trace shows one sample phase. (No universal outcome exists: see
// costmodel.TestAdaptiveNeverAboveUniversal.)
func TestAutoPlannedSamplesOnce(t *testing.T) {
	rs, ss := GenerateTigerLike(6000, 1), GenerateGaussian(6000, 2)
	opt := Options{Eps: 0.6, Algorithm: AutoPlanned, SampleFraction: 0.2, Seed: 3, Workers: 4, Partitions: 16}
	tr := NewTracer()
	opt.Trace = tr
	auto, err := Join(rs, ss, opt)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Algorithm == AutoPlanned {
		t.Fatal("report must carry the resolved algorithm")
	}
	opt.Algorithm, opt.Trace = auto.Algorithm, nil
	want, err := Join(rs, ss, opt)
	if err != nil {
		t.Fatal(err)
	}
	if countersOf(auto) != countersOf(want) {
		t.Errorf("auto %+v\n%v %+v", countersOf(auto), want.Algorithm, countersOf(want))
	}
	samples := 0
	for _, sp := range tr.Spans() {
		if sp.Name == obs.SpanSample {
			samples++
		}
	}
	if samples != 1 {
		t.Errorf("%d sample spans, want 1", samples)
	}
}
