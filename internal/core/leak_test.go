package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/tuple"
)

// TestLocalJoinLeavesNoGoroutines runs a completed, a cancelled and a
// failing local join. After each returns, the goroutine count is back at
// its baseline. Every phase waits for the goroutines it starts, but a
// goroutine that has signalled its WaitGroup may not have exited yet, so
// the check yields until a deadline before it fails.
func TestLocalJoinLeavesNoGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rs := clustered(rng, 3000, 0)
	ss := clustered(rng, 3000, 1_000_000)
	// Explicit bounds leave the non-finite check to the map phase, whose
	// workers must then all stop.
	bounds := geom.Rect{MinX: -20, MinY: -20, MaxX: 60, MaxY: 60}
	cfg := Config{Eps: 0.5, Workers: 4, PoolSize: 4, Bounds: &bounds}
	base := runtime.NumGoroutine()
	check := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines after it returned, %d before\n%s", what, n, base, buf[:runtime.Stack(buf, true)])
		}
	}

	if _, err := Join(rs, ss, cfg); err != nil {
		t.Fatal(err)
	}
	check("completed join")

	p, err := BuildPlan(rs, ss, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ExecuteContext(ctx, Exec{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled join returned %v, want context.Canceled", err)
	}
	check("cancelled join")

	bad := append(slices.Clone(ss), tuple.Tuple{ID: 9, Pt: geom.Point{X: math.NaN(), Y: 1}})
	var nf *tuple.NonFiniteError
	if _, err := Join(rs, bad, cfg); !errors.As(err, &nf) {
		t.Fatalf("join over a NaN point returned %v, want a *tuple.NonFiniteError", err)
	}
	check("failing join")
}
