// Command sjoin runs an ε-distance spatial join between two point files.
//
// Usage:
//
//	sjoin -r left.txt -s right.txt -eps 0.5 [-algo LPiB] [-workers 8]
//	      [-lpt] [-out pairs.txt] [-trace trace.json]
//
// With -trace the join runs under a tracer and its span tree is written
// as Chrome trace-event JSON (load in chrome://tracing or Perfetto); a
// one-line skew summary is printed alongside the metrics.
//
// Input files hold one point per line: "x y [attributes...]". The chosen
// algorithm's replication, shuffle and timing metrics are printed to
// stdout; with -out, the result pairs are written as "rid sid" lines.
//
// Cluster mode: with -cluster-workers N the join's partition-level work
// runs on N sjoin-worker processes instead of in-process. sjoin listens
// on -cluster-listen, prints the address, waits for the workers to
// connect, and reports the measured wire bytes alongside the modelled
// shuffle metrics:
//
//	sjoin -cluster-listen :7077 -cluster-workers 3 -r a.txt -s b.txt -eps 0.5 &
//	sjoin-worker -connect 127.0.0.1:7077   # × 3
//
// Follow mode: with -follow the command becomes a continuous join. It
// tails a mutation file and prints one line per result delta ("+ rid sid"
// when a pair starts qualifying, "- rid sid" when one stops). Mutation
// lines are:
//
//	r <id> <x> <y>     upsert a point of R (insert, move, or refresh)
//	s <id> <x> <y>     upsert a point of S
//	del r <id>         delete a point of R (same for s)
//	rebalance          force an agreement drift scan
//	# ...              comment
//
//	sjoin -follow mutations.txt -eps 0.5 -bounds 0,0,100,100
//
// -follow-poll sets how often the file is re-read once exhausted; 0 makes
// a single pass and exits at EOF (for scripts). -bounds declares the
// data-space MBR the streaming grid covers, and -algo must be lpib or
// diff. A summary "# ..." line is printed at the end.
//
// Watch mode: with -watch URL the command becomes a live terminal
// dashboard over a daemon's /v1/telemetry endpoints (or a router's
// /v1/fleet/overview): sparkline charts of the rollup series, the
// per-tenant SLO table, and recent anomaly events, refreshed every
// -watch-interval. -watch-count N renders N frames then exits (for
// scripts); -watch-window sets the rollup window per frame.
//
//	sjoin -watch http://localhost:8080 -watch-interval 2s
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spatialjoin"
	"spatialjoin/internal/agreements"
	"spatialjoin/internal/cluster"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/stream"
	"spatialjoin/internal/tuple"
)

func main() {
	var (
		rPath     = flag.String("r", "", "path of the R point file (required)")
		sPath     = flag.String("s", "", "path of the S point file (required)")
		eps       = flag.Float64("eps", 0, "distance threshold (required, > 0)")
		algoName  = flag.String("algo", "lpib", "algorithm: lpib, diff, uni-r, uni-s, eps-grid, sedona, lpib-dedup, clone, auto")
		selfJoin  = flag.Bool("self", false, "self-join: -r joined with itself (-s ignored)")
		workers   = flag.Int("workers", 0, "simulated cluster size (default GOMAXPROCS)")
		parts     = flag.Int("partitions", 0, "reduce partitions (default 8 x workers)")
		sample    = flag.Float64("sample", 0, "sampling fraction (default 0.03)")
		seed      = flag.Int64("seed", 1, "sampling seed")
		useLPT    = flag.Bool("lpt", false, "use LPT cell placement (adaptive algorithms)")
		gridRes   = flag.Float64("grid-res", 0, "grid resolution multiplier (default per algorithm)")
		outPath   = flag.String("out", "", "write result pairs to this file")
		tracePath = flag.String("trace", "", "write the join's span tree as Chrome trace-event JSON to this file")

		clusterListen  = flag.String("cluster-listen", "", "run the join on a worker cluster, accepting sjoin-worker connections on this address (e.g. :7077)")
		clusterWorkers = flag.Int("cluster-workers", 0, "worker processes to wait for before joining (requires -cluster-listen)")
		clusterWait    = flag.Duration("cluster-wait", time.Minute, "how long to wait for -cluster-workers connections")

		followPath = flag.String("follow", "", "continuous join: tail this mutation file and print result deltas")
		followPoll = flag.Duration("follow-poll", 200*time.Millisecond, "poll interval once -follow reaches EOF (0: single pass, exit at EOF)")
		boundsSpec = flag.String("bounds", "", "data-space MBR as minx,miny,maxx,maxy (required with -follow)")

		watchURL      = flag.String("watch", "", "live telemetry dashboard: poll this sjoind (or sjoin-router) base URL and render sparkline charts")
		watchInterval = flag.Duration("watch-interval", 2*time.Second, "refresh period for -watch")
		watchCount    = flag.Int("watch-count", 0, "frames to render before exiting; 0 runs until interrupted (requires -watch)")
		watchWindow   = flag.String("watch-window", "2m", "rollup window requested per -watch frame")
	)
	flag.Parse()

	if *watchURL != "" {
		watchMain(*watchURL, *watchInterval, *watchCount, *watchWindow)
		return
	}
	if *followPath != "" {
		followMain(*followPath, *followPoll, *boundsSpec, *eps, *algoName, *gridRes, *tracePath)
		return
	}

	algo, err := spatialjoin.ParseAlgorithm(*algoName)
	if err != nil {
		fail("%v", err)
	}
	if *rPath == "" || (*sPath == "" && !*selfJoin) {
		fail("both -r and -s are required (or -r with -self)")
	}
	if *eps <= 0 {
		fail("-eps must be positive")
	}

	rs, err := spatialjoin.ReadFile(*rPath, 0)
	if err != nil {
		fail("reading R: %v", err)
	}
	var ss []spatialjoin.Tuple
	if !*selfJoin {
		ss, err = spatialjoin.ReadFile(*sPath, 1_000_000_000)
		if err != nil {
			fail("reading S: %v", err)
		}
	}

	opts := spatialjoin.Options{
		Eps:            *eps,
		Algorithm:      algo,
		Workers:        *workers,
		Partitions:     *parts,
		SampleFraction: *sample,
		Seed:           *seed,
		UseLPT:         *useLPT,
		GridRes:        *gridRes,
		Collect:        *outPath != "",
	}
	var tracer *spatialjoin.Tracer
	if *tracePath != "" {
		tracer = spatialjoin.NewTracer()
		opts.Trace = tracer
	}

	if *clusterListen != "" || *clusterWorkers > 0 {
		if *clusterListen == "" {
			fail("-cluster-workers requires -cluster-listen")
		}
		if *clusterWorkers <= 0 {
			fail("-cluster-listen requires -cluster-workers > 0")
		}
		logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
		coord, err := cluster.Listen(*clusterListen, cluster.Config{Log: logger})
		if err != nil {
			fail("cluster: %v", err)
		}
		defer coord.Close()
		fmt.Printf("cluster listening on %s, waiting for %d workers\n", coord.Addr(), *clusterWorkers)
		ctx, cancel := context.WithTimeout(context.Background(), *clusterWait)
		if err := coord.WaitForWorkers(ctx, *clusterWorkers); err != nil {
			cancel()
			fail("cluster: %v", err)
		}
		cancel()
		opts.Engine = coord.Engine()
	}
	var rep *spatialjoin.Report
	if *selfJoin {
		rep, err = spatialjoin.SelfJoin(rs, opts)
		ss = rs
	} else {
		rep, err = spatialjoin.Join(rs, ss, opts)
	}
	if err != nil {
		fail("join: %v", err)
	}

	fmt.Printf("algorithm          %s\n", rep.Algorithm)
	fmt.Printf("|R|, |S|           %d, %d\n", len(rs), len(ss))
	fmt.Printf("results            %d (selectivity %.3e)\n", rep.Results, rep.Selectivity(len(rs), len(ss)))
	fmt.Printf("replicated         %d (R: %d, S: %d)\n", rep.Replicated(), rep.ReplicatedR, rep.ReplicatedS)
	fmt.Printf("shuffled bytes     %d (remote: %d)\n", rep.ShuffledBytes, rep.ShuffleRemoteBytes)
	fmt.Printf("construction time  %v (sample %v, build %v, map %v, shuffle %v)\n",
		rep.ConstructionTime(), rep.SampleTime, rep.BuildTime, rep.MapTime, rep.ShuffleTime)
	fmt.Printf("join time          %v\n", rep.JoinTime)
	if rep.DedupTime > 0 {
		fmt.Printf("dedup time         %v\n", rep.DedupTime)
	}
	fmt.Printf("total time         %v\n", rep.TotalTime())
	if cm := rep.Cluster; cm.Workers > 0 {
		fmt.Printf("cluster workers    %d\n", cm.Workers)
		fmt.Printf("wire task bytes    %d (local: %d, remote: %d)\n",
			cm.TaskBytesLocal+cm.TaskBytesRemote, cm.TaskBytesLocal, cm.TaskBytesRemote)
		fmt.Printf("wire broadcast     %d bytes\n", cm.BroadcastBytes)
		fmt.Printf("wire results       %d bytes\n", cm.ResultBytes)
		fmt.Printf("cluster tasks      %d (retries %d, speculative %d launched / %d won)\n",
			cm.Tasks, cm.Retries, cm.SpeculativeLaunched, cm.SpeculativeWins)
	}

	if tracer != nil {
		writeTrace(tracer, *tracePath)
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fail("creating output: %v", err)
		}
		for _, p := range rep.Pairs {
			fmt.Fprintf(f, "%d %d\n", p.RID, p.SID)
		}
		if err := f.Close(); err != nil {
			fail("writing output: %v", err)
		}
		fmt.Printf("pairs written      %s\n", *outPath)
	}
}

// followMain is the continuous-join entry point: it builds a streaming
// engine, tails the mutation file, and prints result deltas as they are
// emitted.
func followMain(path string, poll time.Duration, boundsSpec string, eps float64, algoName string, gridRes float64, tracePath string) {
	if eps <= 0 {
		fail("-eps must be positive")
	}
	var policy agreements.Policy
	switch strings.ToLower(algoName) {
	case "lpib":
		policy = agreements.LPiB
	case "diff":
		policy = agreements.DIFF
	default:
		fail("-follow supports -algo lpib or diff, got %q", algoName)
	}
	parts := strings.Split(boundsSpec, ",")
	if len(parts) != 4 {
		fail("-follow requires -bounds minx,miny,maxx,maxy")
	}
	var b [4]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			fail("-bounds element %d: %v", i+1, err)
		}
		b[i] = v
	}
	var tracer *spatialjoin.Tracer
	if tracePath != "" {
		tracer = spatialjoin.NewTracer()
	}
	eng, err := stream.New(stream.Config{
		Eps:     eps,
		Bounds:  geom.Rect{MinX: b[0], MinY: b[1], MaxX: b[2], MaxY: b[3]},
		GridRes: gridRes,
		Policy:  policy,
		Tracer:  tracer,
	})
	if err != nil {
		fail("follow: %v", err)
	}
	sub := eng.Subscribe()
	defer sub.Close()

	f, err := os.Open(path)
	if err != nil {
		fail("follow: %v", err)
	}
	defer f.Close()

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	drain := func() {
		for {
			d, ok := sub.TryNext()
			if !ok {
				break
			}
			fmt.Fprintf(out, "%s %d %d\n", d.Op, d.RID, d.SID)
		}
		out.Flush()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	rd := bufio.NewReader(f)
	var pending string
	lineNo := 0
tail:
	for {
		chunk, err := rd.ReadString('\n')
		pending += chunk
		switch {
		case err == nil:
			lineNo++
			followLine(eng, strings.TrimSpace(pending), lineNo)
			pending = ""
			drain()
		case err == io.EOF:
			if poll <= 0 {
				if strings.TrimSpace(pending) != "" {
					lineNo++
					followLine(eng, strings.TrimSpace(pending), lineNo)
					drain()
				}
				break tail
			}
			select {
			case <-sigCh:
				break tail
			case <-time.After(poll):
			}
		default:
			fail("follow: reading %s: %v", path, err)
		}
	}
	if tracer != nil {
		writeTrace(tracer, tracePath)
	}
	c := eng.Counters()
	fmt.Fprintf(out, "# upserts=%d deletes=%d rejected=%d deltas=+%d/-%d live=%d/%d replicas=%d flips=%d migrations=%d\n",
		c.Upserts, c.Deletes, c.Rejected, c.DeltasAdded, c.DeltasRemoved,
		c.LiveR, c.LiveS, c.Replicas, c.AgreementFlips, c.Migrations)
}

// followLine applies one mutation-file line to the engine.
func followLine(eng *stream.Engine, line string, lineNo int) {
	if line == "" || strings.HasPrefix(line, "#") {
		return
	}
	fs := strings.Fields(line)
	parseSet := func(s string) (tuple.Set, bool) {
		switch strings.ToLower(s) {
		case "r":
			return tuple.R, true
		case "s":
			return tuple.S, true
		}
		return 0, false
	}
	switch strings.ToLower(fs[0]) {
	case "rebalance":
		eng.Rebalance()
	case "del":
		if len(fs) != 3 {
			fail("follow line %d: want \"del r|s <id>\", got %q", lineNo, line)
		}
		set, ok := parseSet(fs[1])
		id, err := strconv.ParseInt(fs[2], 10, 64)
		if !ok || err != nil {
			fail("follow line %d: bad delete %q", lineNo, line)
		}
		eng.Delete(set, id)
	case "r", "s":
		if len(fs) != 4 {
			fail("follow line %d: want \"r|s <id> <x> <y>\", got %q", lineNo, line)
		}
		set, _ := parseSet(fs[0])
		id, err1 := strconv.ParseInt(fs[1], 10, 64)
		x, err2 := strconv.ParseFloat(fs[2], 64)
		y, err3 := strconv.ParseFloat(fs[3], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			fail("follow line %d: bad upsert %q", lineNo, line)
		}
		eng.Upsert(set, spatialjoin.Tuple{ID: id, Pt: spatialjoin.Point{X: x, Y: y}})
	default:
		fail("follow line %d: unknown mutation %q", lineNo, line)
	}
}

// writeTrace exports the tracer as Chrome trace-event JSON and prints a
// one-line skew summary.
func writeTrace(tr *spatialjoin.Tracer, path string) {
	f, err := os.Create(path)
	if err != nil {
		fail("creating trace: %v", err)
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		fail("writing trace: %v", err)
	}
	if err := f.Close(); err != nil {
		fail("writing trace: %v", err)
	}
	sk := tr.Skew()
	fmt.Printf("trace written      %s (%d spans; %d tasks, max %v, median %v, straggler ratio %.2f)\n",
		path, tr.Len(), sk.Tasks,
		time.Duration(sk.MaxTaskMicros)*time.Microsecond,
		time.Duration(sk.MedianTaskMicros)*time.Microsecond,
		sk.StragglerRatio)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "sjoin: "+format+"\n", args...)
	os.Exit(2)
}
