package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Pinned engine shape: the simulated cluster size and reduce partition
// count are fixed so replication, shuffle and placement counts do not
// depend on the host's core count.
const (
	simWorkers    = 4
	simPartitions = 32
)

// setupReps is how often a run sets the workload up before the timed
// window (the last instance is the one measured); setup_s is the median.
const setupReps = 3

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json: the single place that names the
// workloads and metrics. The program reads it for the window length,
// the units, the regression bounds of -compare, and to refuse any
// metric it measured but the file does not declare.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// bench is one workload. A run calls setup (setupReps times, with a
// teardown between), oracle once, window once, then — in a traced run —
// layers, and finally teardown.
type bench interface {
	// setup generates the inputs from the seed, starts whatever serves
	// them and warms it up: everything the system needs before the first
	// timed operation.
	setup() error
	// teardown stops what setup started.
	teardown()
	// oracle computes the reference answers the window checks against,
	// independently of the code under test. It is not part of setup_s.
	oracle() error
	// window runs the untraced closed loop for d and checks every reply.
	window(d time.Duration) (*tally, error)
	// layers is the traced layer pass.
	layers(lp *layerPass) error
}

// config is what a workload is built from.
type config struct {
	seed  int64
	scale float64
	// outDir receives the trace file and the disk engine's scratch files.
	outDir string
	// corrupt makes the workload's oracle wrong on purpose, to prove that
	// a wrong answer is counted as failed.
	corrupt bool
}

// scaled applies the size factor to a cardinality.
func (c config) scaled(n int) int { return max(int(float64(n)*c.scale), 64) }

// eps rescales a threshold chosen for the full size so that the points
// per 2ε-cell — the density regime the workload stands for — stay the
// same at any scale.
func (c config) eps(full float64) float64 { return full / math.Sqrt(c.scale) }

// tally is what a timed window observed.
type tally struct {
	elapsed   time.Duration
	ops       int // operations completed inside the window
	attempted int // ops plus any end-of-window verification
	failed    int // errors, non-2xx replies and wrong answers
	// lat holds per-operation wall times in ms by class; class "op" is
	// the workload's principal operation, behind op_p50_ms and op_p95_ms.
	lat map[string][]float64
	// vals are counts the window gathered for the per-layer report.
	vals map[string]float64
}

func newTally() *tally {
	return &tally{lat: map[string][]float64{}, vals: map[string]float64{}}
}

func (t *tally) observe(class string, d time.Duration) {
	t.lat[class] = append(t.lat[class], float64(d)/float64(time.Millisecond))
}

// closedLoop is the window of a single-caller workload: op is called
// back to back for d, timed as class "op", and reports whether its
// answer was right.
func closedLoop(d time.Duration, op func() bool) *tally {
	t := newTally()
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		ok := op()
		t.observe("op", time.Since(t0))
		t.ops++
		if !ok {
			t.failed++
		}
	}
	t.elapsed = time.Since(start)
	t.attempted = t.ops
	return t
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile returns the nearest-rank p-quantile of v (0 when empty).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return s[max(int(math.Ceil(p*float64(len(s))))-1, 0)]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), so spreads match
// the ones the acceptance check computes. It needs two values or more.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(i int) float64 {
		n := len(s)
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

var procStatusKB = regexp.MustCompile(`(VmHWM|VmRSS):\s+(\d+) kB`)

// procMB reads one of the resident-set lines of /proc/self/status, in
// MB: VmRSS (now) or VmHWM (the high-water mark).
func procMB(field string) float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, m := range procStatusKB.FindAllSubmatch(raw, -1) {
		if string(m[1]) == field {
			kb, _ := strconv.ParseFloat(string(m[2]), 64)
			return kb / 1024
		}
	}
	return 0
}

// settle collects garbage, returns freed memory to the OS and restarts
// the resident-set high-water mark, so the window's peak is its own and
// not that of set-up and the oracle. Where the kernel refuses the reset
// the mark simply covers the whole process.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// outcome is everything one run measured.
type outcome struct {
	workload  string
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64 // nil in an untraced run
	counts    map[string]int     // latency sample counts by class
}

// runWorkload performs one run of a workload.
func runWorkload(spec *benchSpec, name string, cfg config, window time.Duration, traced bool) (*outcome, error) {
	b, err := newBench(name, cfg)
	if err != nil {
		return nil, err
	}
	reps := setupReps
	if traced {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			b.teardown()
		}
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.teardown()
	if err := b.oracle(); err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", name, err)
	}

	settle()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t, err := b.window(window)
	if err != nil {
		return nil, fmt.Errorf("%s: window: %w", name, err)
	}
	runtime.ReadMemStats(&m1)
	if t.ops == 0 {
		return nil, fmt.Errorf("%s: no operation completed in %v", name, window)
	}
	// The peak depends on where in a GC cycle the heap happened to be, so
	// it is reported per layer only; the end-to-end memory number is what
	// stays resident once the window's garbage is collected and returned:
	// inputs, caches, plans, engine state.
	peak := procMB("VmHWM")
	settle()
	rest := procMB("VmRSS")

	out := &outcome{workload: name, attempted: t.attempted, failed: t.failed, counts: map[string]int{}}
	for class, v := range t.lat {
		out.counts[class] = len(v)
	}
	out.e2e = map[string]float64{
		"setup_s":         median(setups),
		"op_p50_ms":       median(t.lat["op"]),
		"op_p95_ms":       percentile(t.lat["op"], 0.95),
		"ops_per_s":       float64(t.ops) / t.elapsed.Seconds(),
		"alloc_mb_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / float64(t.ops),
		"rss_mb":          rest,
	}
	if !traced {
		return out, nil
	}

	lp := newLayerPass()
	lp.set("proc.peak_rss_mb", peak)
	for k, v := range t.vals {
		lp.set(k, v)
	}
	if err := b.layers(lp); err != nil {
		return nil, fmt.Errorf("%s: layer pass: %w", name, err)
	}
	out.layer = lp.metrics(spec.PerLayer)
	if err := lp.writeTrace(filepath.Join(cfg.outDir, "trace-"+name+".json")); err != nil {
		return nil, fmt.Errorf("%s: writing trace: %w", name, err)
	}
	return out, nil
}

// result is the last line a run prints: the contract with the driver.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every measured metric by name with its unit, then the
// result line. The line carries the end-to-end metrics of an untraced
// run, or the per-layer metrics of a traced one; a layer the workload
// does not cross reports 0. A measured name BENCHMARK.json does not
// declare is an error, so the two cannot drift apart.
func report(w io.Writer, spec *benchSpec, o *outcome) error {
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d (failed_share %.4f)\n",
		o.workload, o.attempted, o.failed, float64(o.failed)/float64(max(o.attempted, 1)))
	classes := make([]string, 0, len(o.counts))
	for c := range o.counts {
		classes = append(classes, c)
	}
	slices.Sort(classes)
	for _, c := range classes {
		fmt.Fprintf(w, "  samples %-12s %d\n", c, o.counts[c])
	}
	declared := spec.EndToEnd
	measured := o.e2e
	if o.layer != nil {
		for _, m := range spec.EndToEnd {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.Name, o.e2e[m.Name], m.Unit)
		}
		declared, measured = spec.PerLayer, o.layer
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range declared {
		v := measured[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.Name, v, m.Unit)
	}
	var stray []string
	for name := range measured {
		if _, ok := res.Metrics[name]; !ok {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		slices.Sort(stray)
		return fmt.Errorf("measured metrics missing from BENCHMARK.json: %s", strings.Join(stray, ", "))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
