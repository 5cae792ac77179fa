package service

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"spatialjoin"
	"spatialjoin/internal/dstore"
)

// ErrUnknownDataset is returned (wrapped) when no point or geometry
// dataset has the requested name.
var ErrUnknownDataset = errors.New("service: unknown dataset")

// dataset is one registered point set. Re-uploading under the same name
// replaces it and bumps the revision; in-place mutation through Apply
// (stream ingest mirrored into a dataset) bumps the generation instead.
// Plan-cache keys embed both, so either kind of update invalidates stale
// plans. The Tuples slice itself is immutable: Apply builds a fresh one.
type dataset struct {
	Name   string
	Rev    int64
	Gen    int64
	Tuples []spatialjoin.Tuple
	Bounds spatialjoin.Rect
}

// DatasetInfo describes a registered dataset to clients.
type DatasetInfo struct {
	Name   string  `json:"name"`
	Points int     `json:"points"`
	Rev    int64   `json:"rev"`
	Gen    int64   `json:"gen"`
	MinX   float64 `json:"min_x"`
	MinY   float64 `json:"min_y"`
	MaxX   float64 `json:"max_x"`
	MaxY   float64 `json:"max_y"`
}

// registryPersist makes every registry mutation durable before it
// commits. Each hook appends one log record and returns its sequence
// number; a hook error aborts the mutation. Hooks run under the
// registry write lock, so log order always matches commit order and
// the recorded sequence of the last committed mutation (seq) pairs
// consistently with the in-memory state.
type registryPersist struct {
	put    func(name string, rev int64, ts []spatialjoin.Tuple) (uint64, error)
	apply  func(name string, gen int64, ups []spatialjoin.Tuple, dels []int64) (uint64, error)
	delete func(name string) (uint64, error)
}

// Registry is the in-memory dataset store of the service.
type Registry struct {
	mu      sync.RWMutex
	m       map[string]*dataset
	nextRev int64
	metrics *Metrics
	persist *registryPersist
	seq     uint64 // log position of the last committed mutation
}

// NewRegistry builds an empty registry reporting into m (may be nil).
func NewRegistry(m *Metrics) *Registry {
	return &Registry{m: map[string]*dataset{}, metrics: m}
}

// Put registers (or replaces) a dataset and returns its revision.
func (r *Registry) Put(name string, ts []spatialjoin.Tuple) (int64, error) {
	if name == "" {
		return 0, fmt.Errorf("service: dataset name must not be empty")
	}
	if len(ts) == 0 {
		return 0, fmt.Errorf("service: dataset %q has no points", name)
	}
	b := boundsOf(ts)
	r.mu.Lock()
	defer r.mu.Unlock()
	rev := r.nextRev + 1
	if r.persist != nil {
		seq, err := r.persist.put(name, rev, ts)
		if err != nil {
			return 0, fmt.Errorf("service: persisting dataset %q: %w", name, err)
		}
		r.seq = seq
	}
	r.nextRev = rev
	var delta int
	if old, ok := r.m[name]; ok {
		delta = -len(old.Tuples)
	}
	r.m[name] = &dataset{Name: name, Rev: rev, Tuples: ts, Bounds: b}
	r.metrics.Datasets.Set(int64(len(r.m)))
	r.metrics.DatasetPoints.Add(int64(len(ts) + delta))
	return rev, nil
}

// Apply mutates a dataset in place by tuple ID: upserts replace (or
// append) points, deletes drop them. The stored tuple slice is treated as
// immutable — Apply builds a replacement, recomputes the bounds, discards
// cached samples, and bumps the dataset's generation so plan-cache keys
// built against the old contents can never serve the new ones. It returns
// the new generation. Deleting every point is rejected: datasets must stay
// non-empty, matching Put.
func (r *Registry) Apply(name string, upserts []spatialjoin.Tuple, deletes []int64) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.m[name]
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownDataset, name)
	}
	ts := dstore.MergeMutations(d.Tuples, upserts, deletes)
	if len(ts) == 0 {
		return 0, fmt.Errorf("service: mutation would empty dataset %q", name)
	}
	if r.persist != nil {
		seq, err := r.persist.apply(name, d.Gen+1, upserts, deletes)
		if err != nil {
			return 0, fmt.Errorf("service: persisting mutation of %q: %w", name, err)
		}
		r.seq = seq
	}
	nd := &dataset{Name: d.Name, Rev: d.Rev, Gen: d.Gen + 1, Tuples: ts, Bounds: boundsOf(ts)}
	r.m[name] = nd
	r.metrics.DatasetPoints.Add(int64(len(ts) - len(d.Tuples)))
	return nd.Gen, nil
}

// Get returns a registered dataset.
func (r *Registry) Get(name string) (*dataset, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.m[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownDataset, name)
	}
	return d, nil
}

// Delete removes a dataset; it reports whether one was present. When a
// persist hook is installed and fails, the dataset is kept — memory and
// log must never diverge — and Delete reports false.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.m[name]
	if !ok {
		return false
	}
	if r.persist != nil {
		seq, err := r.persist.delete(name)
		if err != nil {
			return false
		}
		r.seq = seq
	}
	delete(r.m, name)
	r.metrics.Datasets.Set(int64(len(r.m)))
	r.metrics.DatasetPoints.Add(-int64(len(d.Tuples)))
	return ok
}

// restore installs one recovered dataset directly, bypassing the
// persist hooks: the backing log records already exist.
func (r *Registry) restore(name string, rev, gen int64, ts []spatialjoin.Tuple) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[name] = &dataset{Name: name, Rev: rev, Gen: gen, Tuples: ts, Bounds: boundsOf(ts)}
	if rev > r.nextRev {
		r.nextRev = rev
	}
	r.metrics.Datasets.Set(int64(len(r.m)))
	r.metrics.DatasetPoints.Add(int64(len(ts)))
}

// snapshot captures a consistent registry state for checkpointing: the
// next revision the registry will assign, the log position of the last
// committed mutation, and every dataset's (rev, gen, tuples). Tuple
// slices are immutable by construction, so sharing them is safe.
func (r *Registry) snapshot() (nextRev int64, seq uint64, out []datasetSnapshot) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out = make([]datasetSnapshot, 0, len(r.m))
	for _, d := range r.m {
		out = append(out, datasetSnapshot{Name: d.Name, Rev: d.Rev, Gen: d.Gen, Tuples: d.Tuples})
	}
	return r.nextRev + 1, r.seq, out
}

// datasetSnapshot is one dataset captured by Registry.snapshot.
type datasetSnapshot struct {
	Name     string
	Rev, Gen int64
	Tuples   []spatialjoin.Tuple
}

// List describes all datasets, sorted by name.
func (r *Registry) List() []DatasetInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]DatasetInfo, 0, len(r.m))
	for _, d := range r.m {
		out = append(out, DatasetInfo{
			Name: d.Name, Points: len(d.Tuples), Rev: d.Rev, Gen: d.Gen,
			MinX: d.Bounds.MinX, MinY: d.Bounds.MinY,
			MaxX: d.Bounds.MaxX, MaxY: d.Bounds.MaxY,
		})
	}
	slices.SortFunc(out, func(a, b DatasetInfo) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

func boundsOf(ts []spatialjoin.Tuple) spatialjoin.Rect {
	b := spatialjoin.Rect{MinX: ts[0].Pt.X, MinY: ts[0].Pt.Y, MaxX: ts[0].Pt.X, MaxY: ts[0].Pt.Y}
	for _, t := range ts[1:] {
		if t.Pt.X < b.MinX {
			b.MinX = t.Pt.X
		}
		if t.Pt.X > b.MaxX {
			b.MaxX = t.Pt.X
		}
		if t.Pt.Y < b.MinY {
			b.MinY = t.Pt.Y
		}
		if t.Pt.Y > b.MaxY {
			b.MaxY = t.Pt.Y
		}
	}
	return b
}
