// Package telem is the continuous-telemetry layer: the one metric
// registry sjoind and the router expose on /metrics (registry.go), a
// zero-dependency in-process time-series store with multi-resolution
// rollups, a per-tenant SLO tracker (latency percentiles from histogram
// interpolation, error-budget burn rate), and an anomaly detector
// emitting structured events into a bounded log.
//
// Every metric elsewhere in the system is a point-in-time counter; the
// paper's adaptive-replication decisions (and the feedback-driven
// planner the ROADMAP calls for) need *history*. telem keeps that
// history cheap and bounded: each series holds fixed-capacity rings of
// min/max/sum/count buckets at 1s/10s/1m resolutions, so a window
// query costs a slice copy and the whole store snapshots to a small
// JSON blob the durable store can persist across restarts.
package telem

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// Bucket is one rollup cell: the reduction of every observation whose
// timestamp falls into [Start, Start+step) seconds.
type Bucket struct {
	Start int64   `json:"start"` // unix seconds, aligned to the resolution step
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Sum   float64 `json:"sum"`
	Count int64   `json:"count"`
}

// Mean returns the bucket's average observation (0 when empty).
func (b Bucket) Mean() float64 {
	if b.Count == 0 {
		return 0
	}
	return b.Sum / float64(b.Count)
}

// Resolution is one rollup level of every series.
type Resolution struct {
	Name string `json:"name"` // wire name, e.g. "10s"
	Step int64  `json:"step"` // seconds per bucket
	Keep int    `json:"keep"` // buckets retained (ring capacity)
}

// resolutions keep 2 minutes at 1s, 30 minutes at 10s, and 4 hours at
// 1m — enough for live dashboards at the fine end and for the
// planner's drift detection at the coarse end.
var resolutions = []Resolution{
	{Name: "1s", Step: 1, Keep: 120},
	{Name: "10s", Step: 10, Keep: 180},
	{Name: "1m", Step: 60, Keep: 240},
}

// series is one (name, key) line with a bucket ring per resolution.
type series struct {
	name, key string
	rings     [][]Bucket
}

// Store is the rollup store. All methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	series  map[string]*series
	order   []string // insertion order of series map keys
	dropped int64    // observations refused because the series cap was hit
}

// maxSeries bounds distinct (name, key) series; label values can ride
// in from request headers, so the cap keeps a hostile tenant from
// growing the store without bound.
const maxSeries = 1024

// NewStore builds an empty store.
func NewStore() *Store {
	return &Store{series: map[string]*series{}}
}

// Observe folds one observation into every resolution of (name, key).
func (st *Store) Observe(name, key string, at time.Time, v float64) {
	sec := at.Unix()
	st.mu.Lock()
	defer st.mu.Unlock()
	mk := labelKey(name, key)
	s, ok := st.series[mk]
	if !ok {
		if len(st.series) >= maxSeries {
			st.dropped++
			return
		}
		s = &series{name: name, key: key, rings: make([][]Bucket, len(resolutions))}
		st.series[mk] = s
		st.order = append(st.order, mk)
	}
	for i, r := range resolutions {
		start := sec - sec%r.Step
		ring := s.rings[i]
		n := len(ring)
		switch {
		case n == 0 || ring[n-1].Start < start:
			ring = append(ring, Bucket{Start: start, Min: v, Max: v, Sum: v, Count: 1})
			if over := len(ring) - r.Keep; over > 0 {
				ring = append(ring[:0], ring[over:]...)
			}
		case ring[n-1].Start == start:
			fold(&ring[n-1], v)
		default:
			// Late observation: fold into the matching older bucket if it
			// is still retained, else drop it silently (it is out of every
			// window anyway).
			for j := n - 2; j >= 0; j-- {
				if ring[j].Start == start {
					fold(&ring[j], v)
					break
				}
				if ring[j].Start < start {
					break
				}
			}
		}
		s.rings[i] = ring
	}
}

func fold(b *Bucket, v float64) {
	b.merge(Bucket{Min: v, Max: v, Sum: v, Count: 1})
}

// merge folds o's observations into b.
func (b *Bucket) merge(o Bucket) {
	if o.Min < b.Min {
		b.Min = o.Min
	}
	if o.Max > b.Max {
		b.Max = o.Max
	}
	b.Sum += o.Sum
	b.Count += o.Count
}

// Dropped reports observations refused because the series cap was hit.
func (st *Store) Dropped() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.dropped
}

// Len reports the number of live series.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.series)
}

// SeriesDump is one series at one resolution on the wire.
type SeriesDump struct {
	Name    string   `json:"name"`
	Key     string   `json:"key,omitempty"`
	Res     string   `json:"res"`
	Step    int64    `json:"step"`
	Buckets []Bucket `json:"buckets"`
}

// Dump returns matching series in insertion order. Empty name, key or
// res match everything; since > 0 drops buckets that end before it
// (unix seconds). Buckets are copies — callers own them.
func (st *Store) Dump(name, key, res string, since int64) []SeriesDump {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []SeriesDump
	for _, mk := range st.order {
		s := st.series[mk]
		if name != "" && s.name != name {
			continue
		}
		if key != "" && s.key != key {
			continue
		}
		for i, r := range resolutions {
			if res != "" && r.Name != res {
				continue
			}
			ring := s.rings[i]
			lo := 0
			for lo < len(ring) && ring[lo].Start+r.Step <= since {
				lo++
			}
			if lo == len(ring) {
				continue
			}
			out = append(out, SeriesDump{
				Name: s.name, Key: s.key, Res: r.Name, Step: r.Step,
				Buckets: append([]Bucket(nil), ring[lo:]...),
			})
		}
	}
	return out
}

// storeSnap is the persistence form of a Store.
type storeSnap struct {
	Resolutions []Resolution `json:"resolutions"`
	Series      []seriesSnap `json:"series"`
	Dropped     int64        `json:"dropped,omitempty"`
}

type seriesSnap struct {
	Name  string     `json:"name"`
	Key   string     `json:"key"`
	Rings [][]Bucket `json:"rings"`
}

func (st *Store) snapshot() storeSnap {
	st.mu.Lock()
	defer st.mu.Unlock()
	snap := storeSnap{Resolutions: resolutions, Dropped: st.dropped}
	for _, mk := range st.order {
		s := st.series[mk]
		rings := make([][]Bucket, len(s.rings))
		for i, r := range s.rings {
			rings[i] = append([]Bucket(nil), r...)
		}
		snap.Series = append(snap.Series, seriesSnap{Name: s.name, Key: s.key, Rings: rings})
	}
	return snap
}

// restore replaces the store contents with a snapshot. A persisted
// snapshot is outside input: one whose resolution set differs is
// re-folded bucket by bucket so it cannot corrupt the rings.
func (st *Store) restore(snap storeSnap) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.series = map[string]*series{}
	st.order = nil
	st.dropped = snap.Dropped
	same := slices.Equal(snap.Resolutions, resolutions)
	for _, ss := range snap.Series {
		if len(st.series) >= maxSeries {
			break
		}
		s := &series{name: ss.Name, key: ss.Key, rings: make([][]Bucket, len(resolutions))}
		if same && len(ss.Rings) == len(resolutions) {
			for i, r := range ss.Rings {
				if over := len(r) - resolutions[i].Keep; over > 0 {
					r = r[over:]
				}
				s.rings[i] = append([]Bucket(nil), r...)
			}
		} else if len(ss.Rings) > 0 {
			// Resolution drift: refold the finest ring we were given.
			for _, b := range ss.Rings[0] {
				for i, r := range resolutions {
					start := b.Start - b.Start%r.Step
					ring := s.rings[i]
					if n := len(ring); n > 0 && ring[n-1].Start == start {
						ring[n-1].merge(b)
					} else {
						ring = append(ring, b)
						ring[len(ring)-1].Start = start
						if over := len(ring) - r.Keep; over > 0 {
							ring = append(ring[:0], ring[over:]...)
						}
					}
					s.rings[i] = ring
				}
			}
		}
		mk := labelKey(ss.Name, ss.Key)
		st.series[mk] = s
		st.order = append(st.order, mk)
	}
}

// MergeSeries aggregates dumps from several sources (shards) into one
// fleet view: buckets with the same (name, key, res, start) are merged
// — sums and counts add, min/max extend. Output series follow first
// appearance order; buckets are sorted by start.
func MergeSeries(groups ...[]SeriesDump) []SeriesDump {
	type agg struct {
		dump    SeriesDump
		byStart map[int64]int // start -> index into dump.Buckets
	}
	var order []string
	merged := map[string]*agg{}
	for _, dumps := range groups {
		for _, d := range dumps {
			mk := labelKey(d.Name, d.Key, d.Res)
			a, ok := merged[mk]
			if !ok {
				a = &agg{
					dump:    SeriesDump{Name: d.Name, Key: d.Key, Res: d.Res, Step: d.Step},
					byStart: map[int64]int{},
				}
				merged[mk] = a
				order = append(order, mk)
			}
			for _, b := range d.Buckets {
				if i, ok := a.byStart[b.Start]; ok {
					a.dump.Buckets[i].merge(b)
				} else {
					a.byStart[b.Start] = len(a.dump.Buckets)
					a.dump.Buckets = append(a.dump.Buckets, b)
				}
			}
		}
	}
	out := make([]SeriesDump, 0, len(order))
	for _, mk := range order {
		a := merged[mk]
		bs := a.dump.Buckets
		for i := 1; i < len(bs); i++ {
			for j := i; j > 0 && bs[j].Start < bs[j-1].Start; j-- {
				bs[j], bs[j-1] = bs[j-1], bs[j]
			}
		}
		out = append(out, a.dump)
	}
	return out
}

// JoinKey names the per-join series key for a (R, S, eps) combination.
func JoinKey(r, s string, eps float64) string {
	return fmt.Sprintf("%s:%s:%g", r, s, eps)
}
