// Package cache provides set-associative cache arrays with MSI coherence
// state and per-line streaming metadata, used for the private L1/L2 caches
// and the shared L3 (paper Table 2).
package cache

import (
	"fmt"
	"math/bits"
	"sync"
)

// State is a line's MSI coherence state.
type State uint8

// MSI states.
const (
	Invalid State = iota
	Shared
	Modified
)

// String names the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Line is one cache line's bookkeeping (data lives in the functional
// memory image; the cache tracks presence, coherence and stream state).
type Line struct {
	Addr  uint64 // line-aligned address
	State State
	lru   uint64

	// Stream metadata for write-forwarding (QLU-aware): bitmask of queue
	// slots on this line whose flag/data has been written since the line
	// was last forwarded, and count of slots consumed.
	StreamWritten  uint32
	StreamConsumed uint32
}

// Params configures a cache array.
type Params struct {
	SizeBytes int
	Ways      int
	LineBytes int
	// Latency is the array access latency in cycles.
	Latency int
}

// Sets returns the number of sets implied by the parameters.
func (p Params) Sets() int { return p.SizeBytes / (p.Ways * p.LineBytes) }

// Validate checks the geometry.
func (p Params) Validate() error {
	if p.SizeBytes <= 0 || p.Ways <= 0 || p.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive parameter: %+v", p)
	}
	if p.LineBytes&(p.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", p.LineBytes)
	}
	if p.SizeBytes%(p.Ways*p.LineBytes) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*line (%d*%d)",
			p.SizeBytes, p.Ways, p.LineBytes)
	}
	sets := p.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Cache is a set-associative array with LRU replacement.
type Cache struct {
	p Params
	// lines is the whole array in one backing slice (sets are consecutive
	// runs of p.Ways lines), so building a cache costs one allocation
	// instead of one per set.
	lines     []Line
	setMask   uint64
	lineShift uint // log2(LineBytes): set indexing shifts instead of dividing
	clock     uint64

	// Stats.
	Hits, Misses, Evictions uint64
}

// pools recycles released arrays, one sync.Pool per geometry: a simulation
// builds the same few arrays as the one before it, and clearing one is
// cheaper than allocating it. A sync.Pool rather than a free list so that an
// idle process hands the arrays back to the collector.
var pools = struct {
	sync.Mutex
	m map[Params]*sync.Pool
}{m: make(map[Params]*sync.Pool)}

func poolFor(p Params) *sync.Pool {
	pools.Lock()
	defer pools.Unlock()
	pool := pools.m[p]
	if pool == nil {
		pool = new(sync.Pool)
		pools.m[p] = pool
	}
	return pool
}

// New builds a cache; it panics on invalid geometry (a configuration bug).
func New(p Params) *Cache {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if c, ok := poolFor(p).Get().(*Cache); ok {
		return c
	}
	sets := p.Sets()
	return &Cache{p: p, lines: make([]Line, sets*p.Ways), setMask: uint64(sets - 1),
		lineShift: uint(bits.TrailingZeros(uint(p.LineBytes)))}
}

// Release clears the cache and offers it to the next New of the same
// geometry; the caller must not use it afterwards. Releasing is optional:
// a cache that is dropped instead is ordinary garbage.
func (c *Cache) Release() {
	clear(c.lines)
	c.clock, c.Hits, c.Misses, c.Evictions = 0, 0, 0, 0
	poolFor(c.p).Put(c)
}

// Params returns the cache geometry.
func (c *Cache) Params() Params { return c.p }

// LineAddr returns addr rounded down to its line boundary.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ (uint64(c.p.LineBytes) - 1) }

func (c *Cache) setOf(lineAddr uint64) []Line {
	idx := (lineAddr >> c.lineShift) & c.setMask
	w := uint64(c.p.Ways)
	return c.lines[idx*w : idx*w+w]
}

// Lookup returns the line containing addr if present (state != Invalid),
// updating LRU and hit/miss statistics.
func (c *Cache) Lookup(addr uint64) *Line {
	la := c.LineAddr(addr)
	set := c.setOf(la)
	c.clock++
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == la {
			set[i].lru = c.clock
			c.Hits++
			return &set[i]
		}
	}
	c.Misses++
	return nil
}

// Peek returns the line containing addr without touching LRU or stats.
// Snoops use Peek.
func (c *Cache) Peek(addr uint64) *Line {
	la := c.LineAddr(addr)
	set := c.setOf(la)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == la {
			return &set[i]
		}
	}
	return nil
}

// Victim describes a line evicted by Insert.
type Victim struct {
	Addr  uint64
	State State
	// Stream metadata travels with the victim so streaming lines evicted
	// mid-fill can flush their occupancy info (paper §4.2).
	StreamWritten  uint32
	StreamConsumed uint32
}

// Insert installs addr's line in the given state, evicting the LRU way if
// needed. It returns the victim (valid when evicted is true). Inserting a
// line that is already present just updates its state.
func (c *Cache) Insert(addr uint64, st State) (victim Victim, evicted bool) {
	la := c.LineAddr(addr)
	set := c.setOf(la)
	c.clock++
	// One pass finds the line if present, the first free way, and the LRU
	// victim among valid ways (only consulted when no way is free, i.e.
	// when every way is valid, so the valid-only LRU tracking is exact).
	freeIdx, lruIdx := -1, 0
	for i := range set {
		if set[i].State == Invalid {
			if freeIdx < 0 {
				freeIdx = i
			}
			continue
		}
		if set[i].Addr == la {
			// Already present: update in place.
			set[i].State = st
			set[i].lru = c.clock
			return Victim{}, false
		}
		if set[i].lru < set[lruIdx].lru {
			lruIdx = i
		}
	}
	if freeIdx >= 0 {
		set[freeIdx] = Line{Addr: la, State: st, lru: c.clock}
		return Victim{}, false
	}
	// Evict LRU.
	v := Victim{
		Addr:           set[lruIdx].Addr,
		State:          set[lruIdx].State,
		StreamWritten:  set[lruIdx].StreamWritten,
		StreamConsumed: set[lruIdx].StreamConsumed,
	}
	c.Evictions++
	set[lruIdx] = Line{Addr: la, State: st, lru: c.clock}
	return v, true
}

// InsertRange installs n consecutive lines starting at base's line in the
// given state, exactly as n sequential Insert calls would — same final
// lines, LRU stamps, clock, and eviction count — but without replaying
// inserts that cannot survive. Consecutive lines fill sets round-robin, so
// the last sets*ways inserts alone overwrite every set completely; earlier
// inserts only advance the clock and evict. The addresses must not already
// be present (preload feeds it distinct, never-inserted lines).
func (c *Cache) InsertRange(base uint64, n int, st State) {
	ways := c.p.Ways
	sets := int(c.setMask) + 1
	capLines := sets * ways
	if n > capLines {
		skip := n - capLines
		// Account the skipped prefix: every insert beyond a set's capacity
		// evicts. Set s receives k_s inserts in total; with its e_s already
		// valid ways that is max(0, e_s+k_s-ways) evictions, of which the
		// replayed suffix (exactly `ways` inserts per set, landing in a set
		// it fully overwrites) observes max(0, e_s+min(k_s,ways)-ways) = e_s.
		// Charge the rest here, before the clock advances past the prefix.
		firstSet := int((base >> c.lineShift) & c.setMask)
		for s := 0; s < sets; s++ {
			// Inserts landing in set s across the whole range.
			k := n / sets
			if (s-firstSet+sets)%sets < n%sets {
				k++
			}
			e := 0
			for _, ln := range c.lines[s*ways : s*ways+ways] {
				if ln.State != Invalid {
					e++
				}
			}
			if over := e + k - ways; over > 0 {
				c.Evictions += uint64(over - e)
			}
		}
		c.clock += uint64(skip)
		base += uint64(skip) << c.lineShift
		n = capLines
	}
	for la, i := base, 0; i < n; i++ {
		c.Insert(la, st)
		la += uint64(c.p.LineBytes)
	}
}

// Invalidate removes addr's line, returning its previous state.
func (c *Cache) Invalidate(addr uint64) State {
	la := c.LineAddr(addr)
	set := c.setOf(la)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == la {
			st := set[i].State
			set[i] = Line{}
			return st
		}
	}
	return Invalid
}

// InvalidateRange removes every line overlapping [base, base+size). It is
// used to keep the write-through L1 inclusive in the L2: when an L2 line
// is invalidated or evicted, the covered L1 lines must go too.
func (c *Cache) InvalidateRange(base, size uint64) int {
	n := 0
	for a := c.LineAddr(base); a < base+size; a += uint64(c.p.LineBytes) {
		if c.Invalidate(a) != Invalid {
			n++
		}
	}
	return n
}

// CountValid returns the number of valid lines (for tests).
func (c *Cache) CountValid() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			n++
		}
	}
	return n
}
