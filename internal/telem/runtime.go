package telem

import "runtime"

// RuntimeStats is a point-in-time sample of the Go runtime.
type RuntimeStats struct {
	Goroutines     int     `json:"goroutines"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	GCPauseSeconds float64 `json:"gc_pause_seconds_total"`
	GCCycles       uint32  `json:"gc_cycles"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
}

// ReadRuntime samples the runtime. runtime.ReadMemStats stops the world
// briefly; callers should only invoke it on scrape, not in hot paths.
func ReadRuntime() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		GCPauseSeconds: float64(ms.PauseTotalNs) / 1e9,
		GCCycles:       ms.NumGC,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
	}
}

// runtimeMetric is a Go runtime family, read from the scrape's one
// runtime sample.
type runtimeMetric struct {
	desc
	read func(RuntimeStats) any
}

func (m *runtimeMetric) value(rs *RuntimeStats) any { return m.read(*rs) }

func registerRuntime(r *Registry) {
	for _, m := range []*runtimeMetric{
		{desc{"go_goroutines", "Number of goroutines that currently exist.", "gauge"},
			func(rs RuntimeStats) any { return rs.Goroutines }},
		{desc{"go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.", "gauge"},
			func(rs RuntimeStats) any { return rs.HeapAllocBytes }},
		{desc{"go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", "counter"},
			func(rs RuntimeStats) any { return rs.GCPauseSeconds }},
		{desc{"go_gc_cycles_total", "Completed GC cycles.", "counter"},
			func(rs RuntimeStats) any { return rs.GCCycles }},
		{desc{"go_gomaxprocs", "The GOMAXPROCS setting.", "gauge"},
			func(rs RuntimeStats) any { return rs.GOMAXPROCS }},
	} {
		r.register(m)
	}
}
