// Package experiments regenerates every table and figure of the paper's
// evaluation section at laptop scale. Each experiment is a function from
// a Scale (cardinality / parallelism knobs) to printable Tables whose rows
// mirror the series of the corresponding paper chart; the registry maps
// the paper's artefact ids ("fig10", "table6", ...) to those functions.
//
// Absolute numbers differ from the paper's 15-VM Spark cluster — the
// substrate here is the in-process engine, and every time column is the
// measured wall clock of that engine on the host's cores — but the
// comparisons the paper draws (who replicates less, who shuffles less,
// how gaps evolve across sweeps) are reproduced and recorded in
// EXPERIMENTS.md.
package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"spatialjoin"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/tuple"
)

// Scale controls experiment sizing so the full suite can run as a quick
// smoke test or as the full laptop-scale reproduction.
type Scale struct {
	N          int   // base cardinality per data set
	Workers    int   // default worker count
	Partitions int   // reduce partitions (0: the library default)
	Seed       int64 // sampling seed
	// Reps is the number of repetitions per configuration; time metrics
	// report the run with the median wall-clock time (the paper averages
	// 10 executions). 0 means 3.
	Reps int
}

// reps resolves the repetition default.
func (sc Scale) reps() int {
	if sc.Reps <= 0 {
		return 3
	}
	return sc.Reps
}

// DefaultScale is the full laptop-scale configuration: 200k points per
// set keeps the paper's ~40 points per 2ε-cell occupancy in the 100×100
// world with the default ε of 0.5.
func DefaultScale() Scale { return Scale{N: 200_000, Workers: 12} }

// QuickScale is a fast configuration for tests and benchmarks.
func QuickScale() Scale { return Scale{N: 25_000, Workers: 4, Reps: 1} }

// DefaultEps is the scaled counterpart of the paper's default ε = 0.012:
// both put an average of a few tens of points in each 2ε grid cell.
const DefaultEps = 0.5

// EpsSweep mirrors the paper's ε ∈ {0.009, 0.012, 0.015, 0.018} — the
// same 0.75 / 1 / 1.25 / 1.5 ratios around the default.
var EpsSweep = []float64{0.375, 0.5, 0.625, 0.75}

// Table is one printable result table.
type Table struct {
	ID      string   // paper artefact id, e.g. "fig10a"
	Title   string   // what the paper's chart shows
	Columns []string // header
	Rows    [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Experiment is a registry entry.
type Experiment struct {
	ID          string
	Description string
	Run         func(Scale) []*Table
}

// Registry lists every reproduced artefact in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"fig1b", "relative replication overhead of PBSM over adaptive replication", Fig1b},
		{"table1", "running example: replication and per-cell cost under universal replication", Table1},
		{"fig10", "effect of varying radius on replication", Fig10},
		{"fig11", "effect of varying radius on shuffle remote reads", Fig11},
		{"fig12", "effect of varying radius on execution time", Fig12},
		{"table4", "result set selectivity and join results", Table4},
		{"fig13", "effect of varying data set size (S1 x S2)", Fig13},
		{"fig14", "effect of varying the number of nodes (S1 x S2)", Fig14},
		{"fig15", "effect of varying the grid resolution (S1 x S2)", Fig15},
		{"fig16", "effect of increasing tuple size (S1 x S2)", Fig16},
		{"fig17", "effect of increasing tuple size (R1 x S1)", Fig17},
		{"fig18", "effect of increasing tuple size (R2 x R1)", Fig18},
		{"table5", "extra attributes on join vs post-processing", Table5},
		{"table6", "duplicate-free vs non-duplicate-free with deduplication", Table6},
		{"table7", "hash vs LPT assignment of cells to workers", Table7},
	}
}

// FullRegistry returns the paper artefacts followed by the extension
// ablations (xsample, xpolicy, xcostmodel).
func FullRegistry() []Experiment {
	return append(Registry(), Extensions()...)
}

// Find returns the registry entry with the given id, searching paper
// artefacts and extensions.
func Find(id string) (Experiment, bool) {
	for _, e := range FullRegistry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Combo names a data set combination of the evaluation.
type Combo struct {
	Name string
	R, S func(n int) []tuple.Tuple
}

// Combos returns the paper's three data set combinations.
func Combos() []Combo {
	return []Combo{
		{"S1xS2", datagen.S1, datagen.S2},
		{"R1xS1", datagen.R1, datagen.S1},
		{"R2xR1", datagen.R2, datagen.R1},
	}
}

// ChartAlgorithms returns the six algorithms of the paper's charts.
func ChartAlgorithms() []spatialjoin.Algorithm {
	return []spatialjoin.Algorithm{
		spatialjoin.AdaptiveLPiB,
		spatialjoin.AdaptiveDIFF,
		spatialjoin.PBSMUniR,
		spatialjoin.PBSMUniS,
		spatialjoin.PBSMEpsGrid,
		spatialjoin.SedonaLike,
	}
}

// run executes one configured join sc.reps() times and returns the run
// with the median wall-clock time, failing loudly: experiment
// configurations are all valid by construction. Counts and bytes are
// deterministic across repetitions; only timings vary.
func (sc Scale) run(rs, ss []tuple.Tuple, opt spatialjoin.Options) *spatialjoin.Report {
	reps := make([]*spatialjoin.Report, sc.reps())
	for i := range reps {
		rep, err := spatialjoin.Join(rs, ss, opt)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		reps[i] = rep
	}
	slices.SortFunc(reps, func(a, b *spatialjoin.Report) int { return cmp.Compare(a.TotalTime(), b.TotalTime()) })
	return reps[len(reps)/2]
}

// baseOptions applies the scale to an Options value.
func (sc Scale) baseOptions(eps float64, algo spatialjoin.Algorithm) spatialjoin.Options {
	return spatialjoin.Options{
		Eps:        eps,
		Algorithm:  algo,
		Workers:    sc.Workers,
		Partitions: sc.Partitions,
		Seed:       sc.Seed,
	}
}

// Formatting helpers ----------------------------------------------------

func fmtCount(v int64) string { return fmt.Sprintf("%d", v) }

func fmtBytes(v int64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%dB", v)
	}
}

func fmtDur(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}

func fmtRatio(num, den int64) string {
	if den == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(num)/float64(den))
}

func fmtSel(v float64) string { return fmt.Sprintf("%.2e", v) }

// sortTablesByID keeps multi-table outputs stable.
func sortTablesByID(ts []*Table) []*Table {
	slices.SortFunc(ts, func(a, b *Table) int { return cmp.Compare(a.ID, b.ID) })
	return ts
}
