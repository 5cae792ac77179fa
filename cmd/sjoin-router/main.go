// Command sjoin-router is the fleet front door: one logical sjoind
// over N sjoind shards. Datasets are placed on a consistent-hash ring
// (tenant-aware keys, replicated), single-shard requests are proxied,
// and a cross-shard join streams the smaller input to the larger's
// shard and runs there, so clients see exactly the single-daemon HTTP
// API — same wire formats, byte-identical checksums.
//
// Usage:
//
//	sjoin-router -shards a=http://h1:8080,b=http://h2:8080 [-addr :8090]
//	             [-vnodes 64] [-replicas 2]
//	             [-heartbeat 500ms] [-heartbeat-misses 5] [-retries 3]
//	             [-tenant-quota RATE:BURST] [-tenant-override T=RATE:BURST]
//	             [-warm-joins 4] [-log-level info]
//
// Tenancy rides on the X-Tenant request header: it scopes dataset
// names, placement keys and admission buckets. -tenant-quota sets the
// default joins-per-second budget (token bucket, e.g. 5:10 is 5/s with
// burst 10); -tenant-override pins a specific tenant's budget and may
// repeat. Over-budget requests answer 429 with Retry-After.
//
// Shards join and leave at runtime via POST/DELETE /v1/fleet/shards;
// the router migrates datasets over the shard handoff endpoints before
// swapping the ring, so in-flight requests never observe a
// half-migrated placement. GET /v1/fleet/ring shows placement.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spatialjoin/internal/fleet"
)

func main() {
	var (
		addr      = flag.String("addr", ":8090", "listen address")
		shardsArg = flag.String("shards", "", "comma-separated id=url shard list (e.g. a=http://h1:8080,b=http://h2:8080)")
		vnodes    = flag.Int("vnodes", 64, "ring points per shard")
		replicas  = flag.Int("replicas", 2, "shards holding each dataset")
		heartbeat = flag.Duration("heartbeat", 500*time.Millisecond, "shard /healthz probe interval")
		hbMisses  = flag.Int("heartbeat-misses", 5, "consecutive missed probes before a shard is declared dead")
		retries   = flag.Int("retries", 3, "per-request attempts across shard failures")
		warmJoins = flag.Int("warm-joins", 4, "recent join shapes replayed to warm a migrated dataset's new owner")
		maxUpload = flag.Int64("max-upload-bytes", 64<<20, "dataset upload size cap")
		traceRing = flag.Int("trace-ring", 0, "retained routed-join traces for /v1/joins/{id}/trace (default 64)")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	)
	var defQuota fleet.Quota
	flag.Func("tenant-quota", "default per-tenant join budget as RATE:BURST (e.g. 5:10); empty disables tenant admission", func(s string) error {
		q, err := fleet.ParseQuota(s)
		if err != nil {
			return err
		}
		defQuota = q
		return nil
	})
	overrides := map[string]fleet.Quota{}
	flag.Func("tenant-override", "per-tenant budget as TENANT=RATE:BURST; may repeat", func(s string) error {
		tenant, spec, ok := strings.Cut(s, "=")
		if !ok || tenant == "" {
			return fmt.Errorf("want TENANT=RATE:BURST, got %q", s)
		}
		q, err := fleet.ParseQuota(spec)
		if err != nil {
			return err
		}
		overrides[tenant] = q
		return nil
	})
	flag.Parse()

	var level slog.LevelVar
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		slog.Error("sjoin-router: bad -log-level", "value", *logLevel)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: &level}))

	shardURLs, err := parseShards(*shardsArg)
	if err != nil {
		logger.Error("bad -shards", "err", err)
		os.Exit(2)
	}
	if len(shardURLs) == 0 {
		logger.Error("at least one -shards entry is required")
		os.Exit(2)
	}
	if flagWasSet("trace-ring") && *traceRing < 1 {
		logger.Error("-trace-ring must be at least 1")
		os.Exit(1)
	}

	rt := fleet.NewRouter(fleet.Config{
		VNodes:            *vnodes,
		Replicas:          *replicas,
		HeartbeatInterval: *heartbeat,
		HeartbeatMisses:   *hbMisses,
		MaxRetries:        *retries,
		TenantQuota:       defQuota,
		TenantOverrides:   overrides,
		WarmJoins:         *warmJoins,
		MaxUploadBytes:    *maxUpload,
		TraceRing:         *traceRing,
		Log:               logger,
	}, shardURLs)
	defer rt.Close()

	srv := &http.Server{Handler: rt.Handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	// Port first on stdout, like sjoind: scripts and the e2e test bind
	// ":0" and parse the banner to find the router.
	fmt.Printf("sjoin-router listening on %s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		logger.Info("signal received, shutting down", "signal", sig.String())
		srv.Close()
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Error("server failed", "err", err)
			os.Exit(1)
		}
	}
}

// flagWasSet reports whether the named flag appeared on the command
// line — distinguishing an explicit bad value from the zero default.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// parseShards decodes "id=url,id=url".
func parseShards(s string) (map[string]string, error) {
	out := map[string]string{}
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("want id=url, got %q", part)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("duplicate shard id %q", id)
		}
		out[id] = url
	}
	return out, nil
}
