package queue

import (
	"testing"
	"testing/quick"
)

func TestMPMCRouteValidate(t *testing.T) {
	good := MPMCRoute{Producers: []int{0, 1}, Consumers: []int{2, 3}}
	if err := good.Validate(5, 32); err != nil {
		t.Fatal(err)
	}
	bad := []MPMCRoute{
		{Producers: nil, Consumers: []int{1}},
		{Producers: []int{0}, Consumers: nil},
		{Producers: []int{1, 0}, Consumers: []int{2}},    // unsorted
		{Producers: []int{0, 0}, Consumers: []int{2}},    // duplicate
		{Producers: []int{0, 1, 2}, Consumers: []int{3}}, // 3 !| 32
	}
	for i, r := range bad {
		if err := r.Validate(0, 32); err == nil {
			t.Errorf("route %d accepted: %+v", i, r)
		}
	}
}

func TestMPMCLaneCount(t *testing.T) {
	for _, c := range []struct{ p, n, want int }{
		{1, 1, 1}, {2, 1, 2}, {1, 2, 2}, {2, 2, 2},
		{2, 4, 4}, {4, 2, 4}, {2, 3, 6}, {3, 4, 12},
	} {
		r := MPMCRoute{Producers: make([]int, c.p), Consumers: make([]int, c.n)}
		if got := r.LaneCount(); got != c.want {
			t.Errorf("lcm(%d,%d) lanes = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func TestSyncArrayMPMCLaneAllocation(t *testing.T) {
	p := DefaultSAParams(4, 32)
	p.MPMC = map[int]MPMCRoute{
		2: {Producers: []int{0, 1}, Consumers: []int{2, 3}},
	}
	sa := newSA(t, p)
	base, ok := sa.laneBase[2]
	if !ok || base != 4 {
		t.Fatalf("laneBase[2] = %d,%v, want 4,true (lanes append after NumQueues)", base, ok)
	}
	if _, ok := sa.laneBase[0]; ok {
		t.Error("SPSC queue has lanes")
	}
	// Invalid routes must be rejected at construction.
	for i, bad := range []map[int]MPMCRoute{
		{9: {Producers: []int{0, 1}, Consumers: []int{2}}},    // q out of range
		{1: {Producers: []int{0, 0}, Consumers: []int{2}}},    // duplicate core
		{1: {Producers: []int{0, 1, 2}, Consumers: []int{3}}}, // 3 !| 32
	} {
		bp := DefaultSAParams(4, 32)
		bp.MPMC = bad
		if _, err := NewSyncArray(bp); err == nil {
			t.Errorf("bad MPMC params %d accepted", i)
		}
	}
}

// A port on a queue without an MPMC route must be a transparent view of
// the array: produces through one core's port are consumable directly and
// vice versa, preserving SPSC behaviour bit for bit.
func TestSAPortSPSCPassThrough(t *testing.T) {
	sa := newSA(t, DefaultSAParams(4, 32))
	p0, p1 := sa.Port(0), sa.Port(1)
	cycle := uint64(1)
	for i := 0; i < 5; i++ {
		sa.Tick(cycle)
		if _, ok := p0.Produce(cycle, 1, uint64(10+i)); !ok {
			t.Fatalf("produce %d rejected", i)
		}
		cycle++
	}
	for i := 0; i < 5; i++ {
		sa.Tick(cycle)
		cycle++
	}
	for i := 0; i < 5; i++ {
		sa.Tick(cycle)
		tok, ok := p1.Consume(cycle, 1)
		if !ok {
			t.Fatalf("consume %d rejected", i)
		}
		if tok.Value != uint64(10+i) {
			t.Fatalf("consume %d = %d, want %d", i, tok.Value, 10+i)
		}
		cycle++
	}
}

// Property: under any randomized interleaving of P producers and C
// consumers on one MPMC queue, nothing is lost, duplicated, or reordered
// beyond the ticket discipline — consumer j's i-th consume is exactly
// global ticket i*C+j, and a consumer only ever waits for a ticket that
// has not been produced yet.
func TestSAPortMPMCTicketProperty(t *testing.T) {
	f := func(seed uint32, pc, cc uint8) bool {
		// Depth 24 is divisible by every endpoint count in range.
		P := 1 + int(pc)%3
		C := 1 + int(cc)%4
		params := DefaultSAParams(2, 24)
		route := MPMCRoute{}
		for i := 0; i < P; i++ {
			route.Producers = append(route.Producers, i)
		}
		for i := 0; i < C; i++ {
			route.Consumers = append(route.Consumers, P+i)
		}
		params.MPMC = map[int]MPMCRoute{1: route}
		sa, err := NewSyncArray(params)
		if err != nil {
			return false
		}
		ports := map[int]*SAPort{}
		for i := 0; i < P+C; i++ {
			ports[i] = sa.Port(i)
		}

		rng := seed
		next := func() uint32 {
			rng = rng*1664525 + 1013904223
			return rng
		}
		produced := make([]uint64, P) // per-producer completed count
		got := make([][]uint64, C)
		cycle := uint64(1)
		for ; cycle < 600; cycle++ {
			sa.Tick(cycle)
			who := int(next()) % (P + C)
			if who < P {
				// Value = the producer's own next global ticket.
				v := produced[who]*uint64(P) + uint64(who)
				if _, ok := ports[who].Produce(cycle, 1, v); ok {
					produced[who]++
				}
			} else {
				j := who - P
				if tok, ok := ports[P+j].Consume(cycle, 1); ok {
					got[j] = append(got[j], tok.Value)
				}
			}
		}
		// Drain: consume round-robin until nothing moves for a while.
		idle := 0
		for idle < 20 {
			sa.Tick(cycle)
			moved := false
			for j := 0; j < C; j++ {
				if tok, ok := ports[P+j].Consume(cycle, 1); ok {
					got[j] = append(got[j], tok.Value)
					moved = true
				}
			}
			cycle++
			if moved {
				idle = 0
			} else {
				idle++
			}
		}
		for j := 0; j < C; j++ {
			for i, v := range got[j] {
				if v != uint64(i*C+j) {
					return false // lost, duplicated or reordered
				}
			}
			// The consumer may only be stuck on an unproduced ticket.
			nextTicket := uint64(len(got[j])*C + j)
			owner := int(nextTicket % uint64(P))
			if nextTicket/uint64(P) < produced[owner] {
				return false // ticket produced but never delivered
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
