package cache

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	return New(Params{SizeBytes: 1024, Ways: 2, LineBytes: 64, Latency: 1}) // 8 sets
}

func TestParamsValidate(t *testing.T) {
	good := Params{SizeBytes: 16 << 10, Ways: 4, LineBytes: 64, Latency: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{SizeBytes: 0, Ways: 4, LineBytes: 64},
		{SizeBytes: 16 << 10, Ways: 4, LineBytes: 60}, // not power of two
		{SizeBytes: 1000, Ways: 4, LineBytes: 64},     // not divisible
		{SizeBytes: 192 * 64, Ways: 1, LineBytes: 64}, // sets not power of two
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
	if got := good.Sets(); got != 64 {
		t.Errorf("Sets = %d", got)
	}
}

func TestLookupInsertInvalidate(t *testing.T) {
	c := smallCache()
	if c.Lookup(0x1000) != nil {
		t.Fatal("hit in empty cache")
	}
	c.Insert(0x1000, Shared)
	line := c.Lookup(0x1010) // same line, different offset
	if line == nil || line.State != Shared || line.Addr != 0x1000 {
		t.Fatalf("lookup after insert: %+v", line)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
	if st := c.Invalidate(0x1000); st != Shared {
		t.Errorf("Invalidate returned %v", st)
	}
	if c.Lookup(0x1000) != nil {
		t.Error("line survived invalidation")
	}
	if st := c.Invalidate(0x1000); st != Invalid {
		t.Errorf("double invalidate returned %v", st)
	}
}

func TestInsertUpdatesInPlace(t *testing.T) {
	c := smallCache()
	c.Insert(0x1000, Shared)
	if _, evicted := c.Insert(0x1000, Modified); evicted {
		t.Error("re-insert evicted")
	}
	if line := c.Peek(0x1000); line.State != Modified {
		t.Error("state not updated")
	}
	if c.CountValid() != 1 {
		t.Errorf("CountValid = %d", c.CountValid())
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache()             // 2 ways, 8 sets, 64B lines: set = (addr/64) % 8
	a1 := uint64(0 * 64 * 8 * 64) // set 0
	a2 := a1 + 8*64               // set 0, different tag
	a3 := a2 + 8*64               // set 0, third tag
	c.Insert(a1, Modified)
	c.Insert(a2, Shared)
	c.Lookup(a1) // make a1 most recent
	victim, evicted := c.Insert(a3, Shared)
	if !evicted {
		t.Fatal("expected eviction")
	}
	if victim.Addr != a2 || victim.State != Shared {
		t.Errorf("evicted %+v, want a2/Shared", victim)
	}
	if c.Peek(a1) == nil || c.Peek(a3) == nil || c.Peek(a2) != nil {
		t.Error("post-eviction contents wrong")
	}
}

func TestPeekDoesNotTouchStats(t *testing.T) {
	c := smallCache()
	c.Insert(0x40, Shared)
	h, m := c.Hits, c.Misses
	c.Peek(0x40)
	c.Peek(0x4000)
	if c.Hits != h || c.Misses != m {
		t.Error("Peek affected stats")
	}
}

func TestInvalidateRange(t *testing.T) {
	c := smallCache()
	c.Insert(0x000, Shared)
	c.Insert(0x040, Shared)
	c.Insert(0x080, Shared)
	if n := c.InvalidateRange(0x000, 0x80); n != 2 {
		t.Errorf("invalidated %d lines, want 2", n)
	}
	if c.Peek(0x080) == nil {
		t.Error("line outside range invalidated")
	}
}

func TestLineAddr(t *testing.T) {
	c := smallCache()
	if c.LineAddr(0x7f) != 0x40 {
		t.Errorf("LineAddr(0x7f) = %#x", c.LineAddr(0x7f))
	}
}

// Property: after inserting any sequence of addresses, every hit returns
// a line whose Addr matches the lookup's line address, and occupancy
// never exceeds capacity.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := smallCache()
		capacity := c.Params().Sets() * c.Params().Ways
		for _, a := range addrs {
			addr := uint64(a)
			c.Insert(addr, Shared)
			if line := c.Lookup(addr); line == nil || line.Addr != c.LineAddr(addr) {
				return false
			}
			if c.CountValid() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Error("state names wrong")
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad geometry accepted")
		}
	}()
	New(Params{SizeBytes: 100, Ways: 3, LineBytes: 60})
}

// TestReleasedCacheIsFresh: whatever a cache held when it was released, the
// next New of its geometry behaves exactly like an array that was never
// used — same victims, same line contents, same counters — under a random
// operation sequence. The reference takes a different Latency, which keys a
// pool nothing is ever released to.
func TestReleasedCacheIsFresh(t *testing.T) {
	p := Params{SizeBytes: 1024, Ways: 2, LineBytes: 64, Latency: 1}
	ref := p
	ref.Latency = 99
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		dirty := New(p)
		for i := 0; i < 200; i++ {
			if l := dirty.Lookup(uint64(rng.Intn(64)) * 64); l != nil {
				l.StreamWritten = 0xff
			}
			dirty.Insert(uint64(rng.Intn(64))*64, State(1+rng.Intn(2)))
		}
		dirty.Release()

		got, want := New(p), New(ref)
		if n := got.CountValid(); n != 0 || got.Hits+got.Misses != 0 {
			t.Fatalf("round %d: New returned %d valid lines, stats %d/%d", round, n, got.Hits, got.Misses)
		}
		for i := 0; i < 300; i++ {
			a, st := uint64(rng.Intn(64))*64, State(1+rng.Intn(2))
			gl, wl := got.Lookup(a), want.Lookup(a)
			if (gl == nil) != (wl == nil) || gl != nil && *gl != *wl {
				t.Fatalf("round %d op %d: Lookup(%#x) = %+v, a fresh cache gives %+v", round, i, a, gl, wl)
			}
			gv, ge := got.Insert(a^0x40, st)
			wv, we := want.Insert(a^0x40, st)
			if gv != wv || ge != we {
				t.Fatalf("round %d op %d: Insert evicts %+v/%v, a fresh cache %+v/%v", round, i, gv, ge, wv, we)
			}
		}
		if got.Hits != want.Hits || got.Misses != want.Misses {
			t.Fatalf("round %d: stats %d/%d, a fresh cache %d/%d", round,
				got.Hits, got.Misses, want.Hits, want.Misses)
		}
		got.Release()
	}
}

// TestInsertRangeMatchesInserts: InsertRange leaves the same clock as n
// sequential Inserts and, in every set, the same (Addr, State, lru) lines.
// Each set is compared as a set: once the prefix is skipped the way order
// inside a set can differ, which nothing observes (lookups go by address,
// victims by unique LRU stamp). Half the rounds overflow the array so the
// skip runs; the prefill lies above every range address, as preload's
// never-inserted lines do.
func TestInsertRangeMatchesInserts(t *testing.T) {
	p := Params{SizeBytes: 1024, Ways: 2, LineBytes: 64, Latency: 1}
	capLines := p.Sets() * p.Ways
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		got, want := New(p), New(p)
		for i, fill := 0, rng.Intn(2*capLines); i < fill; i++ {
			a, st := 1<<30+uint64(rng.Intn(4*capLines))*64, State(1+rng.Intn(2))
			got.Insert(a, st)
			want.Insert(a, st)
		}
		base := uint64(rng.Intn(1<<16)) * 64
		n := 1 + rng.Intn(capLines)
		if round%2 == 1 {
			n += capLines + rng.Intn(4*capLines)
		}
		st := State(1 + rng.Intn(2))
		got.InsertRange(base, n, st)
		for i := 0; i < n; i++ {
			want.Insert(base+uint64(i)*64, st)
		}
		if got.clock != want.clock {
			t.Fatalf("round %d (base %#x, n %d): clock %d, sequential Inserts %d", round, base, n, got.clock, want.clock)
		}
		for s := 0; s < p.Sets(); s++ {
			if g, w := setContents(got, s), setContents(want, s); !maps.Equal(g, w) {
				t.Fatalf("round %d (base %#x, n %d) set %d: %v, sequential Inserts %v", round, base, n, s, g, w)
			}
		}
		got.Release()
		want.Release()
	}
}

// setContents returns set s's valid lines as a set of (Addr, State, lru).
func setContents(c *Cache, s int) map[Line]bool {
	out := make(map[Line]bool)
	for _, ln := range c.lines[s*c.p.Ways : (s+1)*c.p.Ways] {
		if ln.State != Invalid {
			out[ln] = true
		}
	}
	return out
}
