package port

import "hfstream/internal/stats"

// A TokenPool bump-allocates its first firstSlabSize tokens from one small
// slab, sized for the few dozen tokens most runs hold at once, and any
// later ones from slabs of tokenSlabSize.
const (
	firstSlabSize = 64
	tokenSlabSize = 256
)

// TokenPool is a per-run token arena: tokens are bump-allocated from
// slabs and recycled through a free list, replacing the per-operation
// heap allocation that dominated the simulator's profile. A nil pool is
// valid and falls back to plain allocation, so components can be built
// without one (unit tests, external callers).
//
// Ownership contract: exactly one party may Put a token, and only once
// it can never be read or written again — the core returns the tokens it
// tracks (pend/inflight) as it collects them, and the memory controller
// returns the doneless tokens of its hardware-generated work items when
// their OzQ slots retire. A completed token is never mutated by its
// producer, so recycling at the consumer is safe.
//
// Pools are not safe for concurrent use; each simulation run owns one.
type TokenPool struct {
	slab   []Token
	free   []*Token
	carved bool // the first slab has been made
}

// NewTokenPool returns an empty pool.
func NewTokenPool() *TokenPool {
	return &TokenPool{free: make([]*Token, 0, 64)}
}

// Get returns a pending token located in the given bucket, recycling a
// returned one when available. A nil pool allocates normally.
func (p *TokenPool) Get(loc stats.Bucket) *Token {
	if p == nil {
		return NewToken(loc)
	}
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free = p.free[:n-1]
		*t = Token{DoneAt: Pending, Loc: loc}
		return t
	}
	if len(p.slab) == 0 {
		n := tokenSlabSize
		if !p.carved {
			n, p.carved = firstSlabSize, true
		}
		p.slab = make([]Token, n)
	}
	t := &p.slab[0]
	p.slab = p.slab[1:]
	t.DoneAt = Pending
	t.Loc = loc
	return t
}

// Put returns a token to the pool. Nil pools and nil tokens are ignored.
func (p *TokenPool) Put(t *Token) {
	if p == nil || t == nil {
		return
	}
	p.free = append(p.free, t)
}
