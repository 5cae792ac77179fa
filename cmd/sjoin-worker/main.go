// Command sjoin-worker is one worker process of a spatial-join cluster.
// It dials the coordinator (a `sjoin --cluster-listen` run or a
// `sjoind --cluster-listen` daemon), announces itself, and then executes
// the reduce-partition join tasks streamed to it until the coordinator
// goes away or the process receives SIGTERM/SIGINT.
//
// Usage:
//
//	sjoin-worker -connect host:7077 [-name w1] [-parallel N]
//	             [-task-delay 0] [-log-level info]
//
// -task-delay stalls every task before it runs; it exists for fault
// injection and straggler experiments, not production use. The
// liveness beacon period is fixed by the cluster protocol.
package main

import (
	"context"
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"spatialjoin/internal/cluster"
)

func main() {
	var (
		connect   = flag.String("connect", "", "coordinator address (required), e.g. 127.0.0.1:7077")
		name      = flag.String("name", "", "worker name in coordinator logs (default the hostname)")
		parallel  = flag.Int("parallel", 0, "concurrent task executors (default GOMAXPROCS)")
		taskDelay = flag.Duration("task-delay", 0, "stall every task by this long (fault-injection aid)")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	)
	flag.Parse()

	var level slog.LevelVar
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		slog.Error("sjoin-worker: bad -log-level", "value", *logLevel)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: &level}))

	if *connect == "" {
		logger.Error("sjoin-worker: -connect is required")
		os.Exit(2)
	}
	if *name == "" {
		if host, err := os.Hostname(); err == nil {
			*name = host
		} else {
			*name = "worker"
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigCh
		logger.Info("signal received, disconnecting", "signal", sig.String(), "worker", *name)
		cancel()
	}()

	err := cluster.RunWorker(ctx, *connect, cluster.WorkerOptions{
		Name:      *name,
		Parallel:  *parallel,
		TaskDelay: *taskDelay,
		Log:       logger,
	})
	if err != nil {
		logger.Error("worker exited", "worker", *name, "err", err)
		os.Exit(1)
	}
}
