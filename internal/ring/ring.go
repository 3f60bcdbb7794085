// Package ring provides a wait-free single-producer single-consumer ring
// buffer in the FastFlow style: head and tail live on their own cache
// lines so the producer and consumer never false-share, and each side
// keeps a cached copy of the other's index so the shared counters are
// only re-read when the cached view says the ring looks full or empty
// (batching the cross-core traffic to once per drain/fill instead of once
// per operation).
//
// The contract is strict SPSC: exactly one goroutine may call TryPush and
// exactly one may call TryPop. The two sides may run concurrently.
//
// Nothing in this module imports the package any more: exp.Pool went back
// to a buffered channel once bench/spine measured the ring hand-off slower
// per submit. It stays only because the frozen bench/spine/probes.go
// imports it for ring.spsc_push_pop_ns and ring.spsc_handoff_ns; the next
// benchmark PR should drop those probes and this package together.
package ring

import "sync/atomic"

// pad is one cache line of padding (64 bytes covers the common case;
// adjacent-line prefetchers are defeated by the surrounding fields'
// natural separation).
type pad [64]byte

// SPSC is a bounded wait-free single-producer single-consumer queue.
type SPSC[T any] struct {
	_    pad
	head atomic.Uint64 // next slot to pop (consumer-owned)
	_    pad
	tail atomic.Uint64 // next slot to push (producer-owned)
	_    pad
	// cachedHead is the producer's last view of head: TryPush only reloads
	// the shared counter when tail-cachedHead says the ring may be full.
	cachedHead uint64
	_          pad
	// cachedTail is the consumer's last view of tail, symmetrically.
	cachedTail uint64
	_          pad

	buf  []T
	mask uint64
}

// New returns a ring holding at least capacity items (rounded up to a
// power of two, minimum 1).
func New[T any](capacity int) *SPSC[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &SPSC[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Cap returns the ring's capacity.
func (r *SPSC[T]) Cap() int { return len(r.buf) }

// Len returns the number of items currently queued. It is exact when
// called from either endpoint goroutine and a consistent snapshot
// otherwise.
func (r *SPSC[T]) Len() int { return int(r.tail.Load() - r.head.Load()) }

// TryPush enqueues v, reporting false when the ring is full. Producer
// side only.
func (r *SPSC[T]) TryPush(v T) bool {
	t := r.tail.Load()
	if t-r.cachedHead == uint64(len(r.buf)) {
		r.cachedHead = r.head.Load()
		if t-r.cachedHead == uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
	return true
}

// TryPop dequeues the oldest item, reporting false when the ring is
// empty. Consumer side only.
func (r *SPSC[T]) TryPop() (T, bool) {
	var zero T
	h := r.head.Load()
	if h == r.cachedTail {
		r.cachedTail = r.tail.Load()
		if h == r.cachedTail {
			return zero, false
		}
	}
	v := r.buf[h&r.mask]
	r.buf[h&r.mask] = zero // drop the reference so the GC can reclaim it
	r.head.Store(h + 1)
	return v, true
}
