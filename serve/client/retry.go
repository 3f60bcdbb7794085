package client

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// RetryPolicy configures WithRetry: bounded attempts with exponential
// backoff and seeded jitter. The zero value of any field falls back to
// the defaults noted per field.
type RetryPolicy struct {
	// MaxAttempts bounds the total tries, first attempt included
	// (0 = 3). A policy never retries past this, whatever the server
	// hints.
	MaxAttempts int
	// BaseDelay is the first backoff step (0 = 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (0 = 2s).
	MaxDelay time.Duration
	// Multiplier is the per-attempt growth factor (0 = 2).
	Multiplier float64
	// Seed feeds the jitter PRNG so a retry schedule replays exactly
	// (the same property every other seeded subsystem here has).
	Seed int64
	// Sleep is a test seam replacing the context-aware wait
	// (nil = real sleep).
	Sleep func(time.Duration)
}

// withDefaults resolves zero fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Multiplier == 0 {
		p.Multiplier = 2
	}
	return p
}

// WithRetry enables transparent retries on the unary client calls
// (Run, Metrics, PeerGet, PeerPut). Streaming calls are never retried
// — a stream is not idempotent from the middle, and its failure mode
// is the typed ErrTruncatedStream. Whether an error is worth retrying
// is decided by Retryable, the one retryability table.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) {
		pol := p.withDefaults()
		c.retry = &retrier{policy: pol, rng: rand.New(rand.NewSource(pol.Seed))}
	}
}

// Retries reports how many retry attempts (beyond first tries) this
// client has performed — the error-budget currency cmd/hfload reports.
func (c *Client) Retries() uint64 {
	if c.retry == nil {
		return 0
	}
	return c.retry.retries.Load()
}

// Retryable is the per-class retryability table, in one place so every
// caller agrees on it. The rule mirrors the fault taxonomy: transient
// conditions (overload, drain, transport failure, a corrupted transfer
// that a re-fetch would redo) are retryable; deterministic outcomes
// (a rejected spec, a run that deadlocks, a key the shard simply does
// not hold) would fail identically again and are not.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	// A canceled or expired context belongs to the caller; retrying
	// against it only burns the deadline further.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Detail.Code {
		case "queue_full", "draining", "internal":
			return true
		case "bad_request", "not_cached", "deadlock", "run_failed",
			"canceled", "timeout", "integrity":
			// timeout (504) means the job itself exceeded its budget —
			// deterministic, a retry would burn the same budget again.
			// integrity on a PUT means the receiver saw damaged bytes;
			// the peer store path handles that by dropping, not
			// insisting.
			return false
		}
		// Unknown code (e.g. a proxy's non-envelope body decoded as
		// "internal" is handled above; anything else): judge by status.
		return apiErr.Status == 429 || (apiErr.Status >= 500 && apiErr.Status != 501)
	}
	// A body that failed digest verification was damaged in flight;
	// re-fetching redraws the channel.
	var ie *IntegrityError
	if errors.As(err, &ie) {
		return true
	}
	// An oversized reply is what the server sends, not what the channel
	// did to it: asking again would only be refused again.
	var tl *TooLargeError
	if errors.As(err, &tl) {
		return false
	}
	// Anything else is a transport-level failure (reset, refused,
	// EOF): the request may never have reached the server.
	return true
}

// retrier holds the per-client retry state.
type retrier struct {
	policy  RetryPolicy
	mu      sync.Mutex
	rng     *rand.Rand
	retries atomic.Uint64
}

// backoff computes the wait before attempt+2: jittered exponential
// backoff, floored by any server Retry-After hint.
func (r *retrier) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := float64(r.policy.BaseDelay) * math.Pow(r.policy.Multiplier, float64(attempt))
	if d > float64(r.policy.MaxDelay) {
		d = float64(r.policy.MaxDelay)
	}
	r.mu.Lock()
	jitter := 0.5 + 0.5*r.rng.Float64() // in [0.5, 1.0): full-jitter lower half
	r.mu.Unlock()
	wait := time.Duration(d * jitter)
	if retryAfter > wait {
		wait = retryAfter
	}
	return wait
}

// sleep waits for d or until ctx is done, whichever is first.
func (r *retrier) sleep(ctx context.Context, d time.Duration) {
	if r.policy.Sleep != nil {
		r.policy.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// withRetry runs op under the client's retry policy (or once, when no
// policy is configured).
func (c *Client) withRetry(ctx context.Context, op func() error) error {
	if c.retry == nil {
		return op()
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil || !Retryable(err) {
			return err
		}
		if attempt+1 >= c.retry.policy.MaxAttempts || ctx.Err() != nil {
			return err
		}
		var ra time.Duration
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			ra = apiErr.RetryAfter
		}
		c.retry.retries.Add(1)
		c.retry.sleep(ctx, c.retry.backoff(attempt, ra))
	}
}
