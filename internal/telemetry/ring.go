package telemetry

import (
	"sync"
	"sync/atomic"
)

// ringStripes is the stripe count of a StripedRing. Entries arrive
// concurrently from every serving goroutine; striping the buffer keeps
// insertion from funnelling through one mutex.
const ringStripes = 8

// StripedRing is a fixed-capacity, lock-striped ring buffer: the
// completed-trace ring here and the event journal's ring. Inserts
// round-robin across stripes with an atomic counter; each stripe
// overwrites its own oldest entry when full. Safe for concurrent use.
type StripedRing[T any] struct {
	next    atomic.Uint64
	stripes [ringStripes]ringStripe[T]
}

type ringStripe[T any] struct {
	mu      sync.Mutex
	buf     []T
	pos     int
	evicted int64
}

// NewStripedRing returns a ring retaining about capacity entries,
// distributed evenly over the stripes.
func NewStripedRing[T any](capacity int) *StripedRing[T] {
	per := (capacity + ringStripes - 1) / ringStripes
	if per < 1 {
		per = 1
	}
	r := &StripedRing[T]{}
	for i := range r.stripes {
		r.stripes[i].buf = make([]T, 0, per)
	}
	return r
}

// Add stores one entry, evicting the stripe's oldest when the stripe
// is full.
func (r *StripedRing[T]) Add(v T) {
	s := &r.stripes[r.next.Add(1)%ringStripes]
	s.mu.Lock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, v)
	} else {
		s.buf[s.pos] = v
		s.pos = (s.pos + 1) % len(s.buf)
		s.evicted++
	}
	s.mu.Unlock()
}

// Snapshot copies out every retained entry, stripe by stripe.
func (r *StripedRing[T]) Snapshot() []T {
	var out []T
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		out = append(out, s.buf...)
		s.mu.Unlock()
	}
	return out
}

// Stats reports total evictions and the current buffered count.
func (r *StripedRing[T]) Stats() (evicted int64, buffered int) {
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		evicted += s.evicted
		buffered += len(s.buf)
		s.mu.Unlock()
	}
	return evicted, buffered
}
