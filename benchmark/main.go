// Command benchmark is the system benchmark of the spatial-join repo:
// six named workloads, from the paper's one-shot batch join to the
// sjoind HTTP service, each checked against an independent oracle and
// reported as a fixed set of end-to-end and per-layer metrics.
// BENCHMARK.json at the repo root names the workloads, the metrics,
// their units and regression bounds; README.md in this directory says
// which layer is expected to move which end-to-end number.
//
// Usage (from the repo root):
//
//	go run ./benchmark                       every workload, untraced run + layer pass each
//	go run ./benchmark -workload skew-batch  one workload, one run
//	go run ./benchmark -compare a.json b.json
//
// One run prints every metric it measured by name with its unit, and
// as its last line one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with -trace 0, the per-layer metrics
// with -trace 1. A traced run also writes benchmark/out/trace-<workload>.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// outDir receives the trace files, the result log of a full run and the
// disk engine's scratch files. It is inside the checkout and ignored by
// git.
const outDir = "benchmark/out"

// newBench builds a workload by name. Sizes are the full-scale ones;
// cfg.scale shrinks them for tests while keeping each workload's points
// per cell.
func newBench(name string, cfg config) (bench, error) {
	switch name {
	case "skew-batch":
		return &pointBench{cfg: cfg, kindR: kindTiger, kindS: kindGauss,
			n: cfg.scaled(400_000), eps: cfg.eps(0.5), withDstore: true}, nil
	case "sparse-batch":
		return &pointBench{cfg: cfg, kindR: kindUniform, kindS: kindUniform,
			n: cfg.scaled(400_000), eps: cfg.eps(0.158)}, nil
	case "cluster-loopback":
		return &pointBench{cfg: cfg, kindR: kindTiger, kindS: kindGauss,
			n: cfg.scaled(400_000), eps: cfg.eps(0.5), onCluster: true}, nil
	case "serve-mix":
		return &serveBench{cfg: cfg, nBig: cfg.scaled(100_000), nSmall: cfg.scaled(20_000)}, nil
	case "stream-churn":
		return &churnBench{cfg: cfg, n: cfg.scaled(200_000), eps: cfg.eps(0.5)}, nil
	case "geo-poly":
		return &geoBench{cfg: cfg, n: cfg.scaled(20_000)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run; empty runs every workload of BENCHMARK.json, each in a child process")
		seed     = flag.Int64("seed", 1, "input seed: picks the points each generator draws and the request schedule")
		seconds  = flag.Float64("seconds", 0, "length of the timed window; 0 takes run_seconds from BENCHMARK.json")
		trace    = flag.Int("trace", 0, "1 adds the traced layer pass and reports the per-layer metrics")
		scale    = flag.Float64("scale", 1, "input size factor (tests use 0.01)")
		compare  = flag.Bool("compare", false, "compare two result logs of full runs: -compare a.json b.json")
		runs     = flag.Int("runs", 1, "full run only: untraced runs per workload, on seeds seed, seed+1, ...")
		out      = flag.String("out", filepath.Join(outDir, "results.json"), "full run only: result log to write")
	)
	flag.Parse()
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	window := time.Duration(*seconds * float64(time.Second))
	if window <= 0 {
		window = time.Duration(spec.RunSeconds) * time.Second
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result logs"))
		}
		regressed, err := compareLogs(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *workload == "":
		if err := runAll(spec, *seed, *runs, window, *scale, *out); err != nil {
			fatal(err)
		}
	default:
		fmt.Printf("env: %s %s/%s nproc=%d GOMAXPROCS=%d GOGC=%s workers=%d partitions=%d seed=%d window=%v scale=%g\n",
			runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
			envOr("GOGC", "100"), simWorkers, simPartitions, *seed, window, *scale)
		o, err := runWorkload(spec, *workload, config{seed: *seed, scale: *scale, outDir: outDir}, window, *trace == 1)
		if err != nil {
			fatal(err)
		}
		if err := report(os.Stdout, spec, o); err != nil {
			fatal(err)
		}
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// logEntry is one line of a full run's result log.
type logEntry struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// runAll runs every workload of the spec, each run in a child process of
// this same binary so it starts from a fresh heap and has its own peak
// memory: `runs` untraced runs, then one traced run. Every result line
// is appended to the log at out. It fails if any run was incorrect.
func runAll(spec *benchSpec, seed int64, runs int, window time.Duration, scale float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	log, err := os.Create(out)
	if err != nil {
		return err
	}
	defer log.Close()
	var wrong []string
	for _, w := range spec.Workloads {
		for i := 0; i <= runs; i++ {
			e := logEntry{Workload: w.Name, Seed: seed + int64(i)}
			if i == runs { // the traced run reuses the first seed
				e.Seed, e.Trace = seed, 1
			}
			cmd := exec.Command(self,
				"-workload", w.Name, "-seed", strconv.FormatInt(e.Seed, 10), "-trace", strconv.Itoa(e.Trace),
				"-seconds", strconv.FormatFloat(window.Seconds(), 'g', -1, 64),
				"-scale", strconv.FormatFloat(scale, 'g', -1, 64))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			os.Stdout.Write(stdout)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			last := bytes.TrimSpace(stdout)
			if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
				last = last[i+1:]
			}
			if err := json.Unmarshal(last, &e.Result); err != nil {
				return fmt.Errorf("%s: result line: %w", w.Name, err)
			}
			if !e.Result.Correct {
				wrong = append(wrong, fmt.Sprintf("%s (seed %d)", w.Name, e.Seed))
			}
			line, err := json.Marshal(e)
			if err != nil {
				return err
			}
			if _, err := log.Write(append(line, '\n')); err != nil {
				return err
			}
		}
	}
	fmt.Printf("wrote %s\n", out)
	if len(wrong) > 0 {
		return fmt.Errorf("incorrect runs: %s", strings.Join(wrong, ", "))
	}
	return nil
}
