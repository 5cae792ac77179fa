// Command experiments regenerates the paper's evaluation tables and
// figures as text tables.
//
// Usage:
//
//	experiments -list
//	experiments -exp fig10            # one artefact
//	experiments -all                  # the whole evaluation section
//	experiments -all -quick           # fast smoke-scale pass
//	experiments -exp fig13 -n 400000 -workers 12
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured outcomes.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"spatialjoin/internal/asciichart"
	"spatialjoin/internal/experiments"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiments")
		expID   = flag.String("exp", "", "experiment id to run (see -list)")
		all     = flag.Bool("all", false, "run every experiment")
		quick   = flag.Bool("quick", false, "quick scale (25k points) instead of full (200k)")
		n       = flag.Int("n", 0, "override base cardinality per data set")
		workers = flag.Int("workers", 0, "override worker count")
		parts   = flag.Int("partitions", 0, "override reduce partition count")
		seed    = flag.Int64("seed", 0, "sampling seed")
		chart   = flag.Bool("chart", false, "render each table as an ASCII line chart too")
		logY    = flag.Bool("log", false, "log-scale chart y axis (with -chart)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.FullRegistry() {
			fmt.Printf("%-10s %s\n", e.ID, e.Description)
		}
		return
	}

	sc := experiments.DefaultScale()
	if *quick {
		sc = experiments.QuickScale()
	}
	if *n > 0 {
		sc.N = *n
	}
	if *workers > 0 {
		sc.Workers = *workers
	}
	if *parts > 0 {
		sc.Partitions = *parts
	}
	sc.Seed = *seed

	switch {
	case *all:
		for _, e := range experiments.FullRegistry() {
			runOne(e, sc, *chart, *logY)
		}
	case *expID != "":
		e, ok := experiments.Find(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", *expID)
			os.Exit(2)
		}
		runOne(e, sc, *chart, *logY)
	default:
		fmt.Fprintln(os.Stderr, "experiments: one of -list, -exp <id>, or -all is required")
		os.Exit(2)
	}
}

func runOne(e experiments.Experiment, sc experiments.Scale, chart, logY bool) {
	fmt.Printf("### %s — %s (N=%d, workers=%d, host cores=%d; times are measured wall clock)\n",
		e.ID, e.Description, sc.N, sc.Workers, runtime.GOMAXPROCS(0))
	start := time.Now()
	for _, t := range e.Run(sc) {
		fmt.Println(t)
		if chart {
			if out := renderChart(t, logY); out != "" {
				fmt.Println(out)
			}
		}
	}
	fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
}

// renderChart converts a table into an ASCII line chart: leading
// non-numeric cells of each row become the series name, the remaining
// columns the x axis. Tables without numeric cells render nothing.
func renderChart(t *experiments.Table, logY bool) string {
	if len(t.Rows) == 0 {
		return ""
	}
	// Leading label columns: the longest prefix of the first row whose
	// cells do not parse as numbers.
	labels := 0
	for _, cell := range t.Rows[0] {
		if _, ok := asciichart.ParseCell(cell); ok {
			break
		}
		labels++
	}
	if labels == 0 || labels >= len(t.Columns) {
		return ""
	}
	var series []asciichart.Series
	for _, row := range t.Rows {
		s := asciichart.Series{Name: strings.Join(row[:labels], " ")}
		numeric := false
		for _, cell := range row[labels:] {
			v, ok := asciichart.ParseCell(cell)
			if !ok {
				v = 0
			} else {
				numeric = true
			}
			s.Values = append(s.Values, v)
		}
		if numeric {
			series = append(series, s)
		}
	}
	if len(series) == 0 {
		return ""
	}
	return asciichart.Render(t.Title, t.Columns[labels:], series, asciichart.Options{Log: logY})
}
