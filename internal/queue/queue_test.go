package queue

import (
	"testing"
	"testing/quick"
)

func defaultLayout() Layout {
	return Layout{NumQueues: 64, Depth: 32, QLU: 8, LineBytes: 128}
}

func TestLayoutValidate(t *testing.T) {
	if err := defaultLayout().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Layout{
		{NumQueues: 0, Depth: 32, QLU: 8, LineBytes: 128},
		{NumQueues: 64, Depth: 30, QLU: 8, LineBytes: 128},  // depth % QLU
		{NumQueues: 64, Depth: 32, QLU: 7, LineBytes: 128},  // line % QLU
		{NumQueues: 64, Depth: 32, QLU: 32, LineBytes: 128}, // slot < 8B
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("layout %d accepted: %+v", i, l)
		}
	}
}

func TestLayoutGeometry(t *testing.T) {
	l := defaultLayout()
	if l.SlotBytes() != 16 {
		t.Errorf("SlotBytes = %d", l.SlotBytes())
	}
	if l.QueueBytes() != 512 {
		t.Errorf("QueueBytes = %d", l.QueueBytes())
	}
	if !l.HasFlags() {
		t.Error("16B slots should carry flags")
	}
	dense := Layout{NumQueues: 64, Depth: 64, QLU: 16, LineBytes: 128}
	if dense.HasFlags() {
		t.Error("8B slots cannot carry flags")
	}
	if l.FlagAddr(0, 0) != l.SlotAddr(0, 0)+8 {
		t.Error("flag address wrong")
	}
	if l.LineOf(0, 7) != l.LineOf(0, 0) || l.LineOf(0, 8) == l.LineOf(0, 7) {
		t.Error("LineOf boundaries wrong")
	}
}

// Property: SlotOfAddr inverts SlotAddr for every valid (queue, slot).
func TestLayoutAddressRoundTrip(t *testing.T) {
	l := defaultLayout()
	f := func(q, s uint16) bool {
		qi := int(q) % l.NumQueues
		si := int(s) % l.Depth
		gq, gs, ok := l.SlotOfAddr(l.SlotAddr(qi, si))
		return ok && gq == qi && gs == si
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, _, ok := l.SlotOfAddr(Base - 8); ok {
		t.Error("address below region accepted")
	}
	if _, _, ok := l.SlotOfAddr(l.RegionEnd()); ok {
		t.Error("address past region accepted")
	}
	if !l.InRegion(l.SlotAddr(10, 3)) || l.InRegion(0x1000) {
		t.Error("InRegion wrong")
	}
}

func newSA(t *testing.T, p SAParams) *SyncArray {
	t.Helper()
	sa, err := NewSyncArray(p)
	if err != nil {
		t.Fatal(err)
	}
	return sa
}

func TestSyncArrayFIFO(t *testing.T) {
	sa := newSA(t, DefaultSAParams(4, 32))
	cycle := uint64(1)
	// Produce 10 values with ticks between (link rate limits per cycle).
	sent := []uint64{}
	for i := 0; i < 10; i++ {
		sa.Tick(cycle)
		v := uint64(i * 3)
		tok, ok := sa.Produce(cycle, 1, v)
		if !ok {
			t.Fatalf("produce %d rejected", i)
		}
		if !tok.Done(cycle + 1) {
			t.Errorf("produce token should complete next cycle")
		}
		sent = append(sent, v)
		cycle++
	}
	// Let everything arrive.
	for i := 0; i < 5; i++ {
		sa.Tick(cycle)
		cycle++
	}
	if sa.Occupancy(1) != 10 {
		t.Fatalf("occupancy = %d, want 10", sa.Occupancy(1))
	}
	for i := 0; i < 10; i++ {
		sa.Tick(cycle)
		tok, ok := sa.Consume(cycle, 1)
		if !ok {
			t.Fatalf("consume %d rejected", i)
		}
		if !tok.Done(cycle + 1) {
			t.Errorf("consume-to-use should be 1 cycle")
		}
		if tok.Value != sent[i] {
			t.Fatalf("consume %d = %d, want %d (FIFO violated)", i, tok.Value, sent[i])
		}
		cycle++
	}
	for i := 0; i < 5; i++ {
		sa.Tick(cycle)
		cycle++
	}
	if !sa.Drained() {
		t.Error("SA should be drained")
	}
}

func TestSyncArrayBlocksWhenFull(t *testing.T) {
	p := DefaultSAParams(1, 4)
	sa := newSA(t, p)
	cycle := uint64(1)
	accepted := 0
	for i := 0; i < 50; i++ {
		sa.Tick(cycle)
		if _, ok := sa.Produce(cycle, 0, uint64(i)); ok {
			accepted++
		}
		cycle++
	}
	// Capacity = depth + interconnect in-flight stages (1).
	want := p.Depth + p.InterconnectLatency
	if accepted != want {
		t.Errorf("accepted %d produces, want %d (capacity)", accepted, want)
	}
	if sa.FullStalls == 0 {
		t.Error("expected full stalls")
	}
	// Consuming frees credits after the round trip.
	sa.Tick(cycle)
	if _, ok := sa.Consume(cycle, 0); !ok {
		t.Fatal("consume rejected")
	}
	cycle += uint64(p.InterconnectLatency) + 1
	sa.Tick(cycle)
	if _, ok := sa.Produce(cycle, 0, 99); !ok {
		t.Error("produce should succeed after credit returns")
	}
}

func TestSyncArrayEmptyConsume(t *testing.T) {
	sa := newSA(t, DefaultSAParams(1, 4))
	sa.Tick(1)
	if _, ok := sa.Consume(1, 0); ok {
		t.Error("consume on empty queue accepted")
	}
	if sa.EmptyStalls != 1 {
		t.Errorf("EmptyStalls = %d", sa.EmptyStalls)
	}
}

func TestSyncArrayLatencyDelaysArrival(t *testing.T) {
	p := DefaultSAParams(1, 32)
	p.InterconnectLatency = 10
	sa := newSA(t, p)
	sa.Tick(1)
	if _, ok := sa.Produce(1, 0, 7); !ok {
		t.Fatal("produce rejected")
	}
	for c := uint64(2); c <= 10; c++ {
		sa.Tick(c)
		if sa.Occupancy(0) != 0 {
			t.Fatalf("value visible at cycle %d, before transit completes", c)
		}
	}
	sa.Tick(11)
	if sa.Occupancy(0) != 1 {
		t.Fatal("value should have arrived at cycle 11")
	}
}

func TestSyncArrayLinkRate(t *testing.T) {
	// Same-cycle burst: capped by the dedicated store's port budget.
	p := DefaultSAParams(1, 1024)
	p.InterconnectLatency = 12
	sa := newSA(t, p)
	accepted := 0
	for i := 0; i < 40; i++ {
		if _, ok := sa.Produce(1, 0, uint64(i)); ok {
			accepted++
		}
	}
	if accepted != saOpsPerCycle {
		t.Errorf("burst accepted %d, want %d", accepted, saOpsPerCycle)
	}
	// A 3-stage pipelined link of latency N accepts a slot of linkWidth
	// messages every ceil(N/3) cycles. Four attempts per cycle overdrive
	// every latency: over 120 cycles the link takes one message every
	// ceil(N/3)/linkWidth cycles from cycle 1 on, the egress buffer
	// absorbs egressEntries more, and every other attempt is backpressure.
	for _, tc := range []struct{ lat, want int }{
		{1, 244}, {2, 244}, {3, 244}, {4, 124}, {6, 124}, {10, 64}, {12, 64}, {40, 22},
	} {
		p.InterconnectLatency = tc.lat
		sa := newSA(t, p)
		accepted := 0
		for c := uint64(1); c <= 120; c++ {
			sa.Tick(c)
			for i := 0; i < 4; i++ {
				if _, ok := sa.Produce(c, 0, 1); ok {
					accepted++
				}
			}
		}
		if accepted != tc.want {
			t.Errorf("latency %d: accepted %d over 120 cycles, want %d", tc.lat, accepted, tc.want)
		}
		if sa.LinkBackpressure == 0 {
			t.Errorf("latency %d: expected link backpressure", tc.lat)
		}
	}
}

func TestSyncArrayOpsPerCycleBudget(t *testing.T) {
	p := DefaultSAParams(8, 32)
	sa := newSA(t, p)
	// Fill several queues.
	cycle := uint64(1)
	for i := 0; i < 8; i++ {
		sa.Tick(cycle)
		for q := 0; q < 2; q++ {
			sa.Produce(cycle, q, 1)
		}
		cycle += 1
	}
	for i := 0; i < 4; i++ {
		sa.Tick(cycle)
		cycle++
	}
	// A single cycle admits at most saOpsPerCycle operations.
	sa.Tick(cycle)
	ok := 0
	for i := 0; i < 10; i++ {
		if _, o := sa.Consume(cycle, i%2); o {
			ok++
		}
	}
	if ok > saOpsPerCycle {
		t.Errorf("%d ops serviced in one cycle, budget %d", ok, saOpsPerCycle)
	}
}

func TestSyncArrayBadParams(t *testing.T) {
	if _, err := NewSyncArray(SAParams{}); err == nil {
		t.Error("zero params accepted")
	}
	// A latency below one cycle is refused, not clamped to the default.
	lat, c2u := DefaultSAParams(1, 4), DefaultSAParams(1, 4)
	lat.InterconnectLatency, c2u.ConsumeToUse = 0, 0
	for _, p := range []SAParams{lat, c2u} {
		if _, err := NewSyncArray(p); err == nil {
			t.Errorf("latencies %d/%d accepted", p.InterconnectLatency, p.ConsumeToUse)
		}
	}
}

// Property: any interleaving of produces and consumes preserves per-queue
// FIFO order.
func TestSyncArrayFIFOProperty(t *testing.T) {
	f := func(seed uint32) bool {
		sa, err := NewSyncArray(DefaultSAParams(2, 8))
		if err != nil {
			return false
		}
		rng := seed
		next := func() uint32 {
			rng = rng*1664525 + 1013904223
			return rng
		}
		sent := [2][]uint64{}
		got := [2][]uint64{}
		var vcount uint64
		for cycle := uint64(1); cycle < 400; cycle++ {
			sa.Tick(cycle)
			q := int(next() % 2)
			if next()%2 == 0 {
				vcount++
				if _, ok := sa.Produce(cycle, q, vcount); ok {
					sent[q] = append(sent[q], vcount)
				}
			} else {
				if tok, ok := sa.Consume(cycle, q); ok {
					got[q] = append(got[q], tok.Value)
				}
			}
		}
		for q := 0; q < 2; q++ {
			if len(got[q]) > len(sent[q]) {
				return false
			}
			for i, v := range got[q] {
				if sent[q][i] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestFIFO steps one fifo through interleaved pushes and pops across its
// two policy points: a push into a full array with consumed headroom
// compacts in place (the capacity holds), and a pop that empties it resets
// both ends.
func TestFIFO(t *testing.T) {
	f := fifo[int]{buf: make([]int, 0, 4)}
	steps := []struct {
		op   string // "push" or "pop"
		v    int    // the value pushed, or the value pop must return
		len  int
		head int
		cap  int
	}{
		{"push", 1, 1, 0, 4},
		{"push", 2, 2, 0, 4},
		{"push", 3, 3, 0, 4},
		{"pop", 1, 2, 1, 4},
		{"push", 4, 3, 1, 4}, // fills the array: len(buf) == cap
		{"pop", 2, 2, 2, 4},
		{"push", 5, 3, 0, 4}, // full with headroom: compact, no growth
		{"push", 6, 4, 0, 4},
		{"pop", 3, 3, 1, 4},
		{"pop", 4, 2, 2, 4},
		{"pop", 5, 1, 3, 4},
		{"pop", 6, 0, 0, 4}, // emptied: reset
		{"push", 7, 1, 0, 4},
		{"pop", 7, 0, 0, 4},
		{"push", 8, 1, 0, 4},
		{"push", 9, 2, 0, 4},
		{"push", 10, 3, 0, 4},
		{"push", 11, 4, 0, 4},
		{"push", 12, 5, 0, 8}, // full with no headroom: append grows
		{"pop", 8, 4, 1, 8},
	}
	for i, s := range steps {
		switch s.op {
		case "push":
			f.push(s.v)
		case "pop":
			if got := f.pop(); got != s.v {
				t.Fatalf("step %d: pop = %d, want %d", i, got, s.v)
			}
		}
		if f.len() != s.len || f.head != s.head || cap(f.buf) != s.cap {
			t.Fatalf("step %d (%s %d): len %d head %d cap %d, want %d %d %d",
				i, s.op, s.v, f.len(), f.head, cap(f.buf), s.len, s.head, s.cap)
		}
	}
}

// TestSyncArrayWakeAtIsNextWake drives the array the way the wake-gated
// kernel does — Tick only once WakeAt is due, then the cycle's produces
// and consumes — and requires the cached wake to equal nextWake at the
// end of every cycle, which is what lets the kernel's jump read WakeAt.
func TestSyncArrayWakeAtIsNextWake(t *testing.T) {
	for _, lat := range []int{1, 4, 10} {
		p := DefaultSAParams(2, 4)
		p.InterconnectLatency = lat
		sa, err := NewSyncArray(p)
		if err != nil {
			t.Fatal(err)
		}
		rng := uint32(lat)
		next := func(n uint32) uint32 {
			rng = rng*1664525 + 1013904223
			return (rng >> 8) % n
		}
		var produced, consumed int
		for cycle := uint64(1); cycle <= 3000; cycle++ {
			if sa.WakeAt() <= cycle {
				sa.Tick(cycle)
			}
			for n := next(6); n > 0; n-- {
				q := int(next(2))
				if next(2) == 0 {
					if _, ok := sa.Produce(cycle, q, cycle); ok {
						produced++
					}
				} else if _, ok := sa.Consume(cycle, q); ok {
					consumed++
				}
			}
			if got, want := sa.WakeAt(), sa.nextWake(cycle); got != want {
				t.Fatalf("latency %d cycle %d: WakeAt() = %d, nextWake = %d", lat, cycle, got, want)
			}
		}
		if produced == 0 || consumed == 0 {
			t.Fatalf("latency %d: %d produced, %d consumed", lat, produced, consumed)
		}
	}
}
