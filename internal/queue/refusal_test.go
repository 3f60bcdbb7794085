package queue

import (
	"testing"
	"testing/quick"
)

// wantRefusal fails unless the array's last refusal names the given epoch
// and counter with the given stickiness.
func wantRefusal(t *testing.T, sa *SyncArray, epoch, count *uint64, sticky bool) {
	t.Helper()
	ep, cnt, st := sa.Refusal()
	if ep != epoch || cnt != count || st != sticky {
		t.Fatalf("Refusal() = (%p, %p, %v), want (%p, %p, %v)", ep, cnt, st, epoch, count, sticky)
	}
}

func TestSyncArrayRefusalFullAndEmpty(t *testing.T) {
	sa := newSA(t, DefaultSAParams(2, 1)) // capacity: 1 entry + 1 in flight
	sa.Tick(1)
	if _, ok := sa.Consume(1, 1); ok {
		t.Fatal("consume on an empty queue accepted")
	}
	wantRefusal(t, sa, &sa.queues[1].epoch, &sa.EmptyStalls, true)
	for i := 0; i < 2; i++ {
		if _, ok := sa.Produce(1, 0, uint64(i)); !ok {
			t.Fatalf("produce %d rejected below capacity", i)
		}
	}
	if _, ok := sa.Produce(1, 0, 2); ok {
		t.Fatal("produce past capacity accepted")
	}
	wantRefusal(t, sa, &sa.queues[0].epoch, &sa.FullStalls, true)

	// The data deliveries move q0's epoch and leave q1's alone.
	sa.Tick(2)
	if sa.queues[0].epoch != 2 || sa.queues[1].epoch != 0 {
		t.Fatalf("epochs after two data deliveries to q0: q0=%d q1=%d, want 2 and 0",
			sa.queues[0].epoch, sa.queues[1].epoch)
	}
	// Still full until a credit comes back, which moves the epoch again.
	if _, ok := sa.Produce(2, 0, 2); ok {
		t.Fatal("produce accepted with every credit outstanding")
	}
	if _, ok := sa.Consume(2, 0); !ok {
		t.Fatal("consume of a delivered item rejected")
	}
	sa.Tick(3)
	if sa.queues[0].epoch != 3 {
		t.Fatalf("q0 epoch after the credit delivery = %d, want 3", sa.queues[0].epoch)
	}
	if _, ok := sa.Produce(3, 0, 2); !ok {
		t.Fatal("produce rejected after its credit returned")
	}
}

func TestSyncArrayRefusalBudgetNeverSticky(t *testing.T) {
	p := DefaultSAParams(8, 32)
	sa := newSA(t, p)
	sa.Tick(1)
	for q := 0; q < p.OpsPerCycle; q++ {
		if _, ok := sa.Produce(1, q, 1); !ok {
			t.Fatalf("produce on q%d rejected within the budget", q)
		}
	}
	if _, ok := sa.Produce(1, 7, 1); ok {
		t.Fatal("produce past the port budget accepted")
	}
	wantRefusal(t, sa, nil, nil, false)
	// An empty queue is refused before the budget is looked at.
	if _, ok := sa.Consume(1, 7); ok {
		t.Fatal("consume on an empty queue accepted")
	}
	wantRefusal(t, sa, &sa.queues[7].epoch, &sa.EmptyStalls, true)
	sa.Tick(2)
	for q := 0; q < p.OpsPerCycle; q++ {
		if _, ok := sa.Produce(2, q, 2); !ok {
			t.Fatalf("second produce on q%d rejected", q)
		}
	}
	for c := uint64(3); c < 8; c++ {
		sa.Tick(c)
	}
	for q := 0; q < p.OpsPerCycle; q++ {
		if _, ok := sa.Consume(8, q); !ok {
			t.Fatalf("consume on q%d rejected within the budget", q)
		}
	}
	if _, ok := sa.Consume(8, 0); ok {
		t.Fatal("consume past the port budget accepted")
	}
	wantRefusal(t, sa, nil, nil, false)
}

// A full egress buffer refuses a produce only after the produce took a unit
// of the port budget, so the refusal is not sticky: a retry skipped on the
// strength of the link alone would hand that unit to a later operation.
func TestSyncArrayRefusalLinkNotSticky(t *testing.T) {
	p := DefaultSAParams(2, 1024)
	p.InterconnectLatency = 12 // one slot every four cycles
	sa := newSA(t, p)
	for c := uint64(1); sa.LinkBackpressure == 0; c++ {
		if c > 20 {
			t.Fatal("the egress buffer never filled")
		}
		sa.Tick(c)
		used := sa.budgetUsed
		if sa.budgetCycle != c {
			used = 0
		}
		if _, ok := sa.Produce(c, 0, c); ok || sa.LinkBackpressure == 0 {
			continue
		}
		wantRefusal(t, sa, nil, &sa.LinkBackpressure, false)
		if sa.budgetUsed != used+1 {
			t.Fatalf("the link refusal left the budget at %d, want %d", sa.budgetUsed, used+1)
		}
	}
}

// On an MPMC queue the refusal names the lane a port's ticket dispatches
// to: a delivery to another lane does not move it.
func TestSAPortRefusalNamesTheLane(t *testing.T) {
	p := DefaultSAParams(1, 4)
	p.MPMC = map[int]MPMCRoute{0: {Producers: []int{0, 1}, Consumers: []int{2}}}
	sa := newSA(t, p)
	prod0, prod1, cons := sa.Port(0), sa.Port(1), sa.Port(2)
	lane0, lane1 := &sa.queues[sa.laneBase[0]], &sa.queues[sa.laneBase[0]+1]

	sa.Tick(1)
	if _, ok := cons.Consume(1, 0); ok {
		t.Fatal("consume on an empty MPMC queue accepted")
	}
	ep, cnt, sticky := cons.Refusal()
	if ep != &lane0.epoch || cnt != &sa.EmptyStalls || !sticky {
		t.Fatalf("consumer's Refusal() = (%p, %p, %v), want lane 0's epoch %p, EmptyStalls, sticky", ep, cnt, sticky, &lane0.epoch)
	}
	if _, ok := prod1.Produce(1, 0, 11); !ok { // ticket 1: lane 1
		t.Fatal("producer 1 rejected")
	}
	sa.Tick(2)
	if lane1.epoch != 1 || lane0.epoch != 0 {
		t.Fatalf("lane epochs = %d, %d after a delivery to lane 1", lane0.epoch, lane1.epoch)
	}
	if _, ok := cons.Consume(2, 0); ok {
		t.Fatal("ticket 0 consumed before it was produced")
	}
	if _, ok := prod0.Produce(2, 0, 10); !ok { // ticket 0: lane 0
		t.Fatal("producer 0 rejected")
	}
	sa.Tick(3)
	if lane0.epoch != 1 {
		t.Fatalf("lane 0 epoch = %d after its delivery", lane0.epoch)
	}
	if tok, ok := cons.Consume(3, 0); !ok || tok.Value != 10 {
		t.Fatalf("consume after lane 0's delivery = %v, %v", tok, ok)
	}
}

// Property: under random traffic from four ports on an SPSC queue and an
// MPMC queue, a sticky refusal is refused again, bumping only its counter
// and taking no budget, on every later cycle its epoch has not moved.
func TestRefusalRepeatsWhileEpochHolds(t *testing.T) {
	type op struct {
		port, q int
		produce bool
	}
	ops := []op{{0, 0, true}, {2, 0, false}, {0, 1, true}, {1, 1, true}, {2, 1, false}, {3, 1, false}}
	type armed struct {
		op
		epoch, count *uint64
		seen         uint64
	}
	f := func(seed uint32, lat uint8) bool {
		p := DefaultSAParams(2, 4)
		p.InterconnectLatency = 1 + int(lat)%6
		p.MPMC = map[int]MPMCRoute{1: {Producers: []int{0, 1}, Consumers: []int{2, 3}}}
		sa, err := NewSyncArray(p)
		if err != nil {
			t.Fatal(err)
		}
		var ports [4]*SAPort
		for i := range ports {
			ports[i] = sa.Port(i)
		}
		do := func(cycle uint64, o op) bool {
			if o.produce {
				_, ok := ports[o.port].Produce(cycle, o.q, cycle)
				return ok
			}
			_, ok := ports[o.port].Consume(cycle, o.q)
			return ok
		}
		rng := seed | 1
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 17
			rng ^= rng << 5
			return int(rng % uint32(n))
		}
		var live []armed
		repeats := 0
		for cycle := uint64(1); cycle < 400; cycle++ {
			sa.Tick(cycle)
			for n := next(4); n > 0; n-- {
				o := ops[next(len(ops))]
				if do(cycle, o) {
					continue
				}
				if ep, cnt, sticky := ports[o.port].Refusal(); sticky {
					live = append(live, armed{o, ep, cnt, *ep})
				}
			}
			kept := live[:0]
			for _, a := range live {
				if *a.epoch != a.seen {
					continue
				}
				count, budget, bcycle := *a.count, sa.budgetUsed, sa.budgetCycle
				if do(cycle, a.op) {
					t.Logf("seed %d: %+v accepted at cycle %d with its epoch unmoved", seed, a.op, cycle)
					return false
				}
				if *a.count != count+1 || sa.budgetUsed != budget || sa.budgetCycle != bcycle {
					t.Logf("seed %d: %+v repeat at cycle %d changed more than its counter", seed, a.op, cycle)
					return false
				}
				repeats++
				kept = append(kept, a)
			}
			live = kept
		}
		return repeats > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
