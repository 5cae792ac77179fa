package obs

import "sync"

// Ring retains the most recent values under increasing ids: Put stores
// a value under the next id, evicting the value put capacity ids
// earlier. Safe for concurrent use.
type Ring[T any] struct {
	mu    sync.Mutex
	last  int64
	slots []ringSlot[T]
}

type ringSlot[T any] struct {
	id int64
	v  T
}

// DefaultRingSize is the capacity NewRing uses for capacity <= 0.
const DefaultRingSize = 64

// NewRing builds a ring retaining the last capacity values.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &Ring[T]{slots: make([]ringSlot[T], capacity)}
}

// Put stores v and returns its id; ids start at 1.
func (r *Ring[T]) Put(v T) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.last++
	r.slots[r.last%int64(len(r.slots))] = ringSlot[T]{id: r.last, v: v}
	return r.last
}

// Get returns the value stored under id, or false when the id is
// unknown or was evicted.
func (r *Ring[T]) Get(id int64) (T, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id > 0 {
		if s := r.slots[id%int64(len(r.slots))]; s.id == id {
			return s.v, true
		}
	}
	var zero T
	return zero, false
}
