package memsys

import (
	"fmt"
	"math/rand"
	"testing"
)

// mapStreamCache is the stream cache as a map keyed by (queue, slot): the
// reference the slot-indexed streamCache must match.
type mapStreamCache struct {
	capacity int
	entries  map[uint64]uint64
	Hits     uint64
}

func mapKey(q int, slot uint64) uint64 { return uint64(q)<<32 | slot }

func (sc *mapStreamCache) fill(q int, slot, v uint64) {
	if len(sc.entries) < sc.capacity {
		sc.entries[mapKey(q, slot)] = v
	}
}

func (sc *mapStreamCache) take(q int, slot uint64) (uint64, bool) {
	k := mapKey(q, slot)
	v, ok := sc.entries[k]
	if ok {
		delete(sc.entries, k)
		sc.Hits++
	}
	return v, ok
}

// scPair drives the slot-indexed cache and the map reference with the same
// operations and fails on the first difference: a hit or miss, a value, a
// fill dropped by one and kept by the other (the entry counts part), or
// the hit count. Two live slots meeting in one cell would also show: the
// slot-indexed cache would count both and keep one.
type scPair struct {
	t   *testing.T
	got *streamCache
	ref *mapStreamCache
	ops int
}

func newSCPair(t *testing.T, capacity, queues, depth int) *scPair {
	return &scPair{t: t, got: newStreamCache(capacity, queues, depth),
		ref: &mapStreamCache{capacity: capacity, entries: map[uint64]uint64{}}}
}

func (p *scPair) check(op string) {
	p.t.Helper()
	p.ops++
	if p.got.n != len(p.ref.entries) || p.got.Hits != p.ref.Hits {
		p.t.Fatalf("after op %d (%s): %d entries and %d hits, the map holds %d with %d hits",
			p.ops, op, p.got.n, p.got.Hits, len(p.ref.entries), p.ref.Hits)
	}
}

func (p *scPair) fill(q int, slot, v uint64) {
	p.t.Helper()
	p.got.fill(q, slot, v)
	p.ref.fill(q, slot, v)
	p.check(fmt.Sprintf("fill q%d slot %d", q, slot))
}

func (p *scPair) take(q int, slot uint64) bool {
	p.t.Helper()
	v, ok := p.got.take(q, slot)
	rv, rok := p.ref.take(q, slot)
	if ok != rok || v != rv {
		p.t.Fatalf("after op %d: take q%d slot %d = %d,%v, the map gives %d,%v", p.ops, q, slot, v, ok, rv, rok)
	}
	p.check(fmt.Sprintf("take q%d slot %d", q, slot))
	return ok
}

func scValue(q int, slot uint64) uint64 { return uint64(q)<<48 | slot }

// TestStreamCacheDeadEntry is the clash a late forward brings: slot 0's
// fill lands before or after slot depth's, though a probe flush already
// let slot 0's consume finish. The consumer skips the dead fill, so it
// stores nothing and takes none of the cache's capacity: slot depth, which
// shares its cell, stays and hits, and capacity live slots are all kept.
func TestStreamCacheDeadEntry(t *testing.T) {
	const capacity, q = 4, 1
	for _, late := range []bool{true, false} {
		t.Run(fmt.Sprintf("dead-fill-last=%v", late), func(t *testing.T) {
			r := newRig(t, func(p *Params) {
				syncParams(p)
				p.StreamCacheEntries = capacity
			})
			c := r.fab.Controller(1)
			depth := uint64(c.p.Layout.Depth)
			c.consumedCum[q] = 1 // slot 0 finished by a probe flush
			if late {
				c.acceptStreamForward(r.cycle, q, depth, 1)
				c.acceptStreamForward(r.cycle, q, 0, 1)
			} else {
				c.acceptStreamForward(r.cycle, q, 0, 1)
				c.acceptStreamForward(r.cycle, q, depth, 1)
			}
			if c.sc.n != 1 {
				t.Fatalf("the cache holds %d entries after the dead fill, want 1", c.sc.n)
			}
			c.acceptStreamForward(r.cycle, q, depth+1, capacity) // the last is dropped: full
			if c.sc.n != capacity {
				t.Fatalf("the cache holds %d entries, want %d", c.sc.n, capacity)
			}
			if _, ok := c.sc.take(q, 0); ok {
				t.Fatal("the consumed slot 0 was stored")
			}
			for s := depth; s < depth+capacity; s++ {
				if v, ok := c.sc.take(q, s); !ok || v != r.img.Read8(c.p.Layout.SlotAddr(q, c.slotIdx(s))) {
					t.Fatalf("live slot %d: take = %d,%v after the dead fill", s, v, ok)
				}
			}
			if _, ok := c.sc.take(q, depth+capacity); ok {
				t.Fatal("a fill into the full cache was kept")
			}
		})
	}
}

// TestStreamCacheRefill holds a same-slot refill to the map's rule: it
// overwrites while the cache has room and is dropped once it is full.
func TestStreamCacheRefill(t *testing.T) {
	p := newSCPair(t, 4, 1, 32)
	p.fill(0, 5, 1)
	p.fill(0, 5, 2) // overwrites
	for s := uint64(6); s < 9; s++ {
		p.fill(0, s, s)
	}
	p.fill(0, 5, 3) // full: dropped
	if v, _ := p.got.take(0, 5); v != 2 {
		t.Fatalf("slot 5 holds %d, want the refill 2 made before the cache filled", v)
	}
}

// TestStreamCacheMatchesMapModel drives both caches with seeded runs of
// the stream protocol: per queue, consumes issue and finish in slot order,
// the producer runs at most depth slots past the last bulk ACK, and
// forwards carry QLU-sized batches (or a probe flush's partial one) that
// arrive late and out of order. A consume may finish before its batch
// arrives, as a probe flush lets it; like acceptStreamForward, the
// protocol then skips the consumed slots' fills on both sides. The hits
// and the skipped fills are required of each configuration's seeds
// together, not of every run.
func TestStreamCacheMatchesMapModel(t *testing.T) {
	const qlu, queues = 8, 3
	for _, capacity := range []int{8, 64} {
		for _, depth := range []int{32, 64} {
			t.Run(fmt.Sprintf("cap%d/depth%d", capacity, depth), func(t *testing.T) {
				var hits uint64
				var skipped int
				for seed := int64(1); seed <= 20; seed++ {
					p := newSCPair(t, capacity, queues, depth)
					skipped += runSCProtocol(p, rand.New(rand.NewSource(seed)), qlu)
					hits += p.got.Hits
				}
				if hits == 0 || skipped == 0 {
					t.Fatalf("%d hits and %d skipped late fills over 20 seeds: the runs exercised too little", hits, skipped)
				}
			})
		}
	}
}

type scBatch struct {
	q     int
	start uint64
	n     int
	slow  bool // a delayed forward: it waits out many others
}

// runSCProtocol runs one seeded protocol and returns how many fills it
// skipped because their slot's consume had finished.
func runSCProtocol(p *scPair, rng *rand.Rand, qlu int) (skipped int) {
	depth := int(p.got.depth)
	var inFlight []scBatch
	type stream struct {
		produced, forwarded, issued, finished, acked uint64
		hit, arrived                                 map[uint64]bool
	}
	queues := len(p.got.cells)
	st := make([]stream, queues)
	for q := range st {
		st[q].hit, st[q].arrived = map[uint64]bool{}, map[uint64]bool{}
	}
	forward := func(q int, s *stream) {
		inFlight = append(inFlight, scBatch{q, s.forwarded, int(s.produced - s.forwarded), rng.Intn(6) == 0})
		s.forwarded = s.produced
	}
	for step := 0; step < 4000; step++ {
		q := rng.Intn(queues)
		s := &st[q]
		switch rng.Intn(6) {
		case 0: // produce, forwarding each completed line
			if s.produced < s.acked+uint64(depth) {
				s.produced++
				if s.produced-s.forwarded == uint64(qlu) {
					forward(q, s)
				}
			}
		case 1: // a probe flush forwards the partial line
			if s.produced > s.forwarded && rng.Intn(4) == 0 {
				forward(q, s)
			}
		case 2: // one forward arrives, in any order
			if len(inFlight) == 0 {
				continue
			}
			i := rng.Intn(len(inFlight))
			b := inFlight[i]
			if b.slow && rng.Intn(24) != 0 {
				continue
			}
			inFlight[i] = inFlight[len(inFlight)-1]
			inFlight = inFlight[:len(inFlight)-1]
			for k := 0; k < b.n; k++ {
				slot := b.start + uint64(k)
				if slot < st[b.q].finished {
					skipped++
					continue
				}
				p.fill(b.q, slot, scValue(b.q, slot))
				st[b.q].arrived[slot] = true
			}
		case 3: // a consume issues: the stream cache serves it or not
			if s.issued < s.finished+4 {
				s.hit[s.issued] = p.take(q, s.issued)
				s.issued++
			}
		case 4, 5: // the oldest consume finishes once its item arrives, or a probe flush brings it
			f := s.finished
			if f < s.issued && f < s.produced && (s.arrived[f] || rng.Intn(8) == 0) {
				if !s.hit[f] {
					p.take(q, f) // drop a stale copy
				}
				delete(s.hit, f)
				delete(s.arrived, f)
				s.finished++
				if s.finished%uint64(qlu) == 0 {
					s.acked = s.finished
				}
			}
		}
	}
	return skipped
}
