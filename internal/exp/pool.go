package exp

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// Pool is a long-lived bounded worker pool. Unlike Runner.Run, which
// spins workers for one job list and tears them down, a Pool outlives any
// single submission, so a service can keep one pool for its whole
// lifetime and shed load when the queue is full instead of queuing
// unboundedly. Runner.Run itself executes on a throwaway Pool, so the
// batch harness and the serving path share one worker implementation.
var (
	// ErrPoolFull reports a TrySubmit that found the queue at capacity;
	// the caller decides whether to retry, block or shed.
	ErrPoolFull = errors.New("exp: pool queue full")
	// ErrPoolClosed reports a TrySubmit after Close.
	ErrPoolClosed = errors.New("exp: pool closed")
)

// Pool runs submitted functions on a fixed set of worker goroutines that
// range over one buffered channel, whose buffer is the queue: a task holds
// a slot from TrySubmit until a worker receives it. (The FastFlow-style
// ring → dispatcher → mailbox hand-off this replaces cost 0.76-1.0 µs per
// submit against 0.36-0.46 µs for the channel, and either vanishes against
// millisecond simulations.)
type Pool struct {
	tasks chan func()

	mu      sync.Mutex
	closed  bool
	pending int // accepted, not yet finished
	// drained is lazily created by Wait and closed when the pool is
	// closed with no pending work; Wait never spawns a goroutine, so a
	// canceled Wait leaks nothing.
	drained chan struct{}
}

// NewPool starts a pool with the given worker count (<= 0 means
// GOMAXPROCS) and queue depth (clamped to at least 1; a task occupies a
// queue slot from TrySubmit until a worker picks it up).
func NewPool(workers, depth int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth < 1 {
		depth = 1
	}
	p := &Pool{tasks: make(chan func(), depth)}
	for w := 0; w < workers; w++ {
		go p.work()
	}
	return p
}

// TrySubmit enqueues fn without blocking: ErrPoolFull when the queue is
// at capacity, ErrPoolClosed after Close. fn runs exactly once on a
// worker goroutine on success.
func (p *Pool) TrySubmit(fn func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.tasks <- fn:
		p.pending++
		return nil
	default:
		return ErrPoolFull
	}
}

// Close stops intake: subsequent TrySubmit calls fail with ErrPoolClosed,
// while already-queued tasks still run. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	close(p.tasks) // sends happen under mu, so none can race the close
	p.signalDrained()
}

// signalDrained releases Wait once the pool is closed and idle; mu held.
func (p *Pool) signalDrained() {
	if p.closed && p.pending == 0 && p.drained != nil {
		close(p.drained)
		p.drained = nil
	}
}

// Wait blocks until the pool is closed and every accepted task has
// finished, or ctx is done, whichever comes first.
func (p *Pool) Wait(ctx context.Context) error {
	p.mu.Lock()
	if p.closed && p.pending == 0 {
		p.mu.Unlock()
		return nil
	}
	if p.drained == nil {
		p.drained = make(chan struct{})
	}
	ch := p.drained
	p.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Pending returns the number of tasks accepted but not yet finished
// (queued plus running).
func (p *Pool) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}

// QueueLen returns the number of tasks waiting for a worker.
func (p *Pool) QueueLen() int { return len(p.tasks) }

// work is one worker's loop; it exits when Close has closed the channel
// and the queue has drained.
func (p *Pool) work() {
	for fn := range p.tasks {
		fn()
		p.mu.Lock()
		p.pending--
		p.signalDrained()
		p.mu.Unlock()
	}
}
