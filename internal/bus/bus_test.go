package bus

import (
	"testing"
)

// doneOwner hands each request's completion cycle to a test's closure.
type doneOwner func(r *Req, done uint64)

func (doneOwner) ReqNote(*Req, int)             {}
func (f doneOwner) ReqDone(r *Req, done uint64) { f(r, done) }

func TestBeatsForBytes(t *testing.T) {
	b := New(DefaultParams(), 2, nil)
	cases := map[int]int{1: 1, 16: 1, 17: 2, 128: 8, 0: 0}
	for n, want := range cases {
		if got := b.BeatsForBytes(n); got != want {
			t.Errorf("BeatsForBytes(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if s := k.String(); s == "" || s[0] == 'K' && s != "Kind(0)" {
			t.Errorf("kind %d has suspicious name %q", int(k), s)
		}
	}
}

// TestGrantTiming checks a single transaction's latency composition.
func TestGrantTiming(t *testing.T) {
	var doneAt uint64
	handler := func(r *Req, grant uint64) (int, int) { return 10, 8 }
	b := New(DefaultParams(), 1, handler)
	b.Submit(0, &Req{Kind: Read, Addr: 0x1000, Src: 0,
		Owner: doneOwner(func(_ *Req, c uint64) { doneAt = c })})
	b.Tick(1)
	// grant at 1; address phase (arb 1 + snoop 2) = 3; service 10;
	// 8 beats at CPB 1 = 8 -> done at 1+3+10+8 = 22.
	if doneAt != 22 {
		t.Errorf("done at %d, want 22", doneAt)
	}
	if b.TotalGrants() != 1 || b.Grants[Read] != 1 {
		t.Error("grant counters wrong")
	}
	if b.BeatsCarried != 8 {
		t.Errorf("beats = %d", b.BeatsCarried)
	}
}

// TestRoundRobinFairness alternates grants between two hot requesters.
func TestRoundRobinFairness(t *testing.T) {
	order := []int{}
	handler := func(r *Req, grant uint64) (int, int) { return 0, 0 }
	b := New(DefaultParams(), 2, handler)
	own := doneOwner(func(r *Req, _ uint64) { order = append(order, r.Src) })
	for i := 0; i < 4; i++ {
		b.Submit(0, &Req{Kind: Upgrade, Src: i % 2, Owner: own})
	}
	for c := uint64(1); c <= 10; c++ {
		b.Tick(c)
	}
	if len(order) != 4 {
		t.Fatalf("granted %d, want 4", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Errorf("round robin violated: %v", order)
		}
	}
}

// TestPipelinedVsUnpipelined: the unpipelined bus holds the address path
// for the whole transaction; the pipelined bus accepts one per cycle.
func TestPipelinedVsUnpipelined(t *testing.T) {
	run := func(pipelined bool) uint64 {
		p := DefaultParams()
		p.Pipelined = pipelined
		var last uint64
		handler := func(r *Req, grant uint64) (int, int) { return 5, 8 }
		b := New(p, 1, handler)
		own := doneOwner(func(_ *Req, c uint64) { last = max(last, c) })
		for i := 0; i < 4; i++ {
			b.Submit(0, &Req{Kind: Read, Src: 0, Addr: uint64(i * 128), Owner: own})
		}
		for c := uint64(1); c <= 200; c++ {
			b.Tick(c)
		}
		return last
	}
	pipe, noPipe := run(true), run(false)
	if pipe >= noPipe {
		t.Errorf("pipelined (%d) should finish before unpipelined (%d)", pipe, noPipe)
	}
}

// TestDataBusSerializes: back-to-back line transfers queue on the data
// path even on a pipelined bus.
func TestDataBusSerializes(t *testing.T) {
	var times []uint64
	handler := func(r *Req, grant uint64) (int, int) { return 0, 8 }
	b := New(DefaultParams(), 1, handler)
	for i := 0; i < 3; i++ {
		b.Submit(0, &Req{Kind: Read, Src: 0, Owner: doneOwner(func(_ *Req, c uint64) { times = append(times, c) })})
	}
	for c := uint64(1); c <= 100; c++ {
		b.Tick(c)
	}
	if len(times) != 3 {
		t.Fatalf("completed %d", len(times))
	}
	for i := 1; i < 3; i++ {
		if times[i]-times[i-1] < 8 {
			t.Errorf("transfers %d and %d overlap on the data bus: %v", i-1, i, times)
		}
	}
}

// TestCPBScalesLatency: a 4-CPU-cycle bus takes 4x the beats time.
func TestCPBScalesLatency(t *testing.T) {
	run := func(cpb int) uint64 {
		p := DefaultParams()
		p.CPB = cpb
		var done uint64
		b := New(p, 1, func(r *Req, g uint64) (int, int) { return 0, 8 })
		b.Submit(0, &Req{Kind: Read, Src: 0, Owner: doneOwner(func(_ *Req, c uint64) { done = c })})
		b.Tick(1)
		return done
	}
	if d1, d4 := run(1), run(4); d4 <= d1 || d4-1 < (d1-1)*3 {
		t.Errorf("CPB scaling wrong: cpb1 done %d, cpb4 done %d", d1, d4)
	}
}

func TestIdleAndPending(t *testing.T) {
	b := New(DefaultParams(), 2, func(r *Req, g uint64) (int, int) { return 0, 0 })
	if !b.Idle(1) {
		t.Error("fresh bus should be idle")
	}
	b.Submit(1, &Req{Kind: Upgrade, Src: 1})
	if b.Idle(1) {
		t.Error("bus with queued request is not idle")
	}
	if b.queues[1].len() != 1 || b.queues[0].len() != 0 {
		t.Error("request queued for the wrong source")
	}
	b.Tick(2)
	if b.queues[1].len() != 0 {
		t.Error("request not drained")
	}
}

func TestArbWaitAccumulates(t *testing.T) {
	b := New(DefaultParams(), 1, func(r *Req, g uint64) (int, int) { return 0, 0 })
	b.Submit(1, &Req{Kind: Upgrade, Src: 0})
	b.Submit(1, &Req{Kind: Upgrade, Src: 0})
	b.Tick(5)
	b.Tick(6)
	if b.ArbWait != (5-1)+(6-1) {
		t.Errorf("ArbWait = %d, want %d", b.ArbWait, (5-1)+(6-1))
	}
}

func TestBadSourcePanics(t *testing.T) {
	b := New(DefaultParams(), 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("bad source accepted")
		}
	}()
	b.Submit(0, &Req{Src: 7})
}

// TestSubmitWakesWhenTheAddressPathFrees: a request submitted while the
// address path is busy cannot be granted before it frees, so Submit lowers
// the cached wake to addrFree, not to the next cycle.
func TestSubmitWakesWhenTheAddressPathFrees(t *testing.T) {
	p := DefaultParams()
	p.CPB = 4
	b := New(p, 2, func(r *Req, g uint64) (int, int) { return 0, 0 })
	b.Submit(0, &Req{Kind: Upgrade, Src: 0})
	b.Tick(1) // grant: the address path is busy until 1+CPB
	addrFree := b.Snapshot().AddrFree
	if addrFree != 5 {
		t.Fatalf("addrFree = %d, want 5", addrFree)
	}
	b.Submit(1, &Req{Kind: Upgrade, Src: 1})
	if w := b.WakeAt(); w != addrFree {
		t.Errorf("WakeAt() = %d after a submit at 1, want addrFree = %d", w, addrFree)
	}
}

// TestWakeAtIsNextWake drives the bus the way the wake-gated kernel does —
// Tick only once WakeAt is due, then the cycle's submits — and requires
// the cached wake to equal nextWake at the end of every cycle, which is
// what lets the kernel's jump read WakeAt instead of recomputing it.
func TestWakeAtIsNextWake(t *testing.T) {
	for _, p := range []Params{
		DefaultParams(),
		{WidthBytes: 16, CPB: 4, Pipelined: true},
		{WidthBytes: 16, CPB: 2, Pipelined: false},
	} {
		rng := uint32(p.CPB)
		next := func(n uint32) uint32 {
			rng = rng*1664525 + 1013904223
			return (rng >> 8) % n
		}
		b := New(p, 3, func(r *Req, g uint64) (int, int) { return int(next(12)), int(next(9)) })
		for cycle := uint64(1); cycle <= 2000; cycle++ {
			if b.WakeAt() <= cycle {
				b.Tick(cycle)
			}
			for n := next(4); n > 2; n-- {
				b.Submit(cycle, &Req{Kind: Read, Src: int(next(3))})
			}
			if got, want := b.WakeAt(), b.nextWake(cycle); got != want {
				t.Fatalf("%+v cycle %d: WakeAt() = %d, nextWake = %d", p, cycle, got, want)
			}
		}
		if b.TotalGrants() == 0 {
			t.Fatalf("%+v: nothing granted", p)
		}
	}
}
