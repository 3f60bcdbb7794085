// Package evq provides the simulator's calendar queue: a monotone
// min-heap of (cycle, payload) pairs with FIFO tie-breaking. Components
// schedule future work by pushing an event at its wake cycle and the
// owner pops everything due each tick, so the cost of waiting is paid
// per event rather than per cycle.
//
// Determinism contract: PopDue returns due events ordered first by wake
// cycle, then by insertion order. Because every event is scheduled at or
// after the cycle it is pushed, an owner that is ticked at every event's
// wake cycle (the wake-gating kernel guarantees this) pops each event on
// exactly the cycle it was scheduled for — identical to a brute-force
// per-cycle scan of the same events in insertion order.
package evq

// Queue is a min-heap of events keyed by (At, insertion sequence).
// The zero value is an empty queue ready for use.
type Queue[T any] struct {
	h   []item[T]
	seq uint64
}

type item[T any] struct {
	at  uint64
	seq uint64
	v   T
}

// less orders the heap by wake cycle, breaking ties by insertion order so
// same-cycle events replay in the order they were scheduled.
func (q *Queue[T]) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return len(q.h) }

// Min returns the earliest pending wake cycle, or ^uint64(0) when empty.
func (q *Queue[T]) Min() uint64 {
	if len(q.h) == 0 {
		return ^uint64(0)
	}
	return q.h[0].at
}

// firstCap is the heap's first allocation: an owner that schedules
// anything mostly holds a few events at once, so the queue starts there
// rather than growing through one and two entries.
const firstCap = 4

// Push schedules v to become due at cycle at.
func (q *Queue[T]) Push(at uint64, v T) {
	q.seq++
	if q.h == nil {
		q.h = make([]item[T], 0, firstCap)
	}
	q.h = append(q.h, item[T]{at: at, seq: q.seq, v: v})
	q.up(len(q.h) - 1)
}

// PopDue removes and returns the earliest event due at or before cycle.
// ok is false when nothing is due.
func (q *Queue[T]) PopDue(cycle uint64) (v T, ok bool) {
	if len(q.h) == 0 || q.h[0].at > cycle {
		return v, false
	}
	v = q.h[0].v
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h[last] = item[T]{} // release the payload for GC
	q.h = q.h[:last]
	if last > 0 {
		q.down(0)
	}
	return v, true
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.h[i], q.h[smallest] = q.h[smallest], q.h[i]
		i = smallest
	}
}
