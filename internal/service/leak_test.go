package service

import (
	"runtime"
	"testing"
	"time"
)

// TestServiceCloseLeavesNoGoroutines closes an in-memory and a durable
// service that each run a TTL stream and the telemetry sampler; the
// durable one is then reopened, which restores the stream and restarts
// its expiry loop, and closed again. Close waits for every loop it
// stops, so no sleep is needed: a loop that signalled its exit is gone
// once the scheduler runs its last instructions, while a leaked one
// stays blocked in its select until the deadline.
func TestServiceCloseLeavesNoGoroutines(t *testing.T) {
	spec := StreamConfig{Name: "w", Eps: 1, MaxX: 100, MaxY: 100, TTLMillis: 1000}
	check := func(what string, base int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines after Close, %d before\n%s", what, n, base, buf[:runtime.Stack(buf, true)])
		}
	}

	base := runtime.NumGoroutine()
	s := New(Config{TelemSampleEvery: time.Hour})
	if _, err := s.CreateStream(spec); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check("in-memory service", base)

	dir := t.TempDir()
	for _, what := range []string{"durable service", "reopened durable service"} {
		s, err := Open(Config{DataDir: dir, TelemSampleEvery: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if what == "durable service" {
			if _, err := s.CreateStream(spec); err != nil {
				t.Fatal(err)
			}
		} else if len(s.ListStreams()) != 1 {
			t.Fatalf("reopened service has %d streams, want the restored one", len(s.ListStreams()))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		check(what, base)
	}
}
