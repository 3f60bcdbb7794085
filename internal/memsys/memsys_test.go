package memsys

import (
	"testing"

	"hfstream/internal/bus"
	"hfstream/internal/mem"
	"hfstream/internal/port"
	"hfstream/internal/queue"
)

func testLayout() queue.Layout {
	return queue.Layout{NumQueues: 8, Depth: 32, QLU: 8, LineBytes: 128}
}

type rig struct {
	t     testing.TB
	fab   *Fabric
	img   *mem.Memory
	cycle uint64
}

func newRig(t testing.TB, mutate func(*Params)) *rig {
	t.Helper()
	p := DefaultParams(testLayout())
	if mutate != nil {
		mutate(&p)
	}
	img := mem.New()
	fab, err := NewFabric(p, img, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{t: t, fab: fab, img: img, cycle: 0}
}

func (r *rig) step(n int) {
	for i := 0; i < n; i++ {
		r.cycle++
		r.fab.TickDue(r.cycle, true)
	}
}

// until steps the fabric one cycle at a time until cond holds, failing the
// test if it still does not after 100 000 cycles.
func (r *rig) until(cond func() bool) {
	r.t.Helper()
	for i := 0; i < 100000; i++ {
		if cond() {
			return
		}
		r.step(1)
	}
	r.t.Fatalf("cycle %d: condition still false after 100000 cycles", r.cycle)
}

// wait advances until the token completes (or fails the test).
func (r *rig) wait(tok *port.Token) uint64 {
	r.t.Helper()
	r.until(func() bool { return tok.Done(r.cycle) })
	return r.cycle
}

func TestLoadMissThenL1Hit(t *testing.T) {
	r := newRig(t, nil)
	r.img.Write8(0x1000, 77)
	c := r.fab.Controller(0)

	r.step(1)
	tok := c.Load(r.cycle, 0x1000)
	first := r.wait(tok) - r.cycle + r.wait(tok)
	_ = first
	missLat := tok.DoneAt
	if tok.Value != 77 {
		t.Fatalf("load value %d", tok.Value)
	}
	// Second load to the same line: L1 hit, 1 cycle.
	start := r.cycle
	tok2 := c.Load(r.cycle, 0x1008)
	r.wait(tok2)
	if tok2.DoneAt-start > 2 {
		t.Errorf("L1 hit took %d cycles", tok2.DoneAt-start)
	}
	if missLat <= tok2.DoneAt-start {
		t.Errorf("miss (%d) should be slower than hit", missLat)
	}
}

func TestStoreVisibleToOtherCore(t *testing.T) {
	r := newRig(t, nil)
	c0, c1 := r.fab.Controller(0), r.fab.Controller(1)
	r.step(1)
	st := c0.Store(r.cycle, 0x2000, 123)
	r.wait(st)
	ld := c1.Load(r.cycle, 0x2000)
	r.wait(ld)
	if ld.Value != 123 {
		t.Fatalf("remote load got %d", ld.Value)
	}
	// Now core 1 writes the same line: core 0's copy must be invalidated
	// so its next load sees the new value.
	st2 := c1.Store(r.cycle, 0x2000, 456)
	r.wait(st2)
	ld2 := c0.Load(r.cycle, 0x2000)
	r.wait(ld2)
	if ld2.Value != 456 {
		t.Fatalf("core 0 read stale %d after invalidation", ld2.Value)
	}
}

// TestDirtyVictimWriteback: evicting a Modified L2 line writes it back to
// the L3 over the bus and drops the L1 copy, and the other core then reads
// the stored value. A 2 KB, 2-way, 128 B L2 has 8 sets 1 KB apart, so three
// stores 1 KB apart land in one set and the third evicts the first.
func TestDirtyVictimWriteback(t *testing.T) {
	r := newRig(t, func(p *Params) {
		p.L2.SizeBytes, p.L2.Ways = 2<<10, 2
	})
	c0, c1 := r.fab.Controller(0), r.fab.Controller(1)
	const a, setStride = 0x10000, 1 << 10
	r.step(1)
	r.wait(c0.Store(r.cycle, a, 0xbeef))
	r.wait(c0.Load(r.cycle, a)) // brings a into the L1 too
	if c0.L1().Peek(a) == nil {
		t.Fatal("the load left no L1 copy")
	}
	// The miss filled the L3 as well; only the writeback may refill it.
	r.fab.L3().Invalidate(a)
	r.wait(c0.Store(r.cycle, a+setStride, 1))
	r.wait(c0.Store(r.cycle, a+2*setStride, 2))
	r.until(func() bool { return r.fab.Quiesced(r.cycle) })
	if line := c0.L2().Peek(a); line != nil {
		t.Fatalf("the first line was not evicted: %+v", *line)
	}
	if got := r.fab.Bus().Grants[bus.Writeback]; got != 1 {
		t.Errorf("%d writeback grants, want 1", got)
	}
	if r.fab.L3().Peek(a) == nil {
		t.Error("the written-back line is not in the L3")
	}
	if c0.L1().Peek(a) != nil {
		t.Error("the L1 still holds the evicted line")
	}
	ld := c1.Load(r.cycle, a)
	r.wait(ld)
	if ld.Value != 0xbeef {
		t.Errorf("the other core loaded %#x, want 0xbeef", ld.Value)
	}
}

func TestAtMostOneModifiedCopy(t *testing.T) {
	r := newRig(t, nil)
	c0, c1 := r.fab.Controller(0), r.fab.Controller(1)
	r.step(1)
	// Alternate writers on one line, then check MSI invariant.
	for i := 0; i < 6; i++ {
		var tok *port.Token
		if i%2 == 0 {
			tok = c0.Store(r.cycle, 0x3000, uint64(i))
		} else {
			tok = c1.Store(r.cycle, 0x3000, uint64(i))
		}
		r.wait(tok)
		m := 0
		for _, c := range []*Controller{c0, c1} {
			if line := c.L2().Peek(0x3000); line != nil && line.State.String() == "M" {
				m++
			}
		}
		if m > 1 {
			t.Fatalf("two modified copies after store %d", i)
		}
	}
}

func TestFenceOrdersStores(t *testing.T) {
	r := newRig(t, nil)
	c := r.fab.Controller(0)
	r.step(1)
	// First store misses (cold line, slow); the fence must hold the
	// second store until the first completes.
	st1 := c.Store(r.cycle, 0x4000, 1)
	fe := c.Fence(r.cycle)
	st2 := c.Store(r.cycle, 0x5000, 2)
	r.wait(st2)
	// The fence completes in the same OzQ walk that retires its last older
	// entry, not a tick later.
	if !(st1.DoneAt == fe.DoneAt && fe.DoneAt <= st2.DoneAt) {
		t.Errorf("ordering violated: st1@%d fence@%d st2@%d", st1.DoneAt, fe.DoneAt, st2.DoneAt)
	}
}

// TestL1HitLoadPassesFence pins what a fence does not order: an L1-hit
// load never enters the OzQ, so it completes ahead of an older fence that
// is still waiting on a store miss.
func TestL1HitLoadPassesFence(t *testing.T) {
	r := newRig(t, nil)
	c := r.fab.Controller(0)
	r.step(1)
	r.wait(c.Load(r.cycle, 0x8000)) // bring the line into the L1
	st := c.Store(r.cycle, 0x4000, 1)
	fe := c.Fence(r.cycle)
	ld := c.Load(r.cycle, 0x8000)
	r.wait(fe)
	if !(ld.DoneAt < st.DoneAt && st.DoneAt == fe.DoneAt) {
		t.Errorf("want the L1-hit load before the store and the fence: load@%d store@%d fence@%d", ld.DoneAt, st.DoneAt, fe.DoneAt)
	}
}

func TestStoreToLoadSameWord(t *testing.T) {
	r := newRig(t, nil)
	c := r.fab.Controller(0)
	r.step(1)
	c.Store(r.cycle, 0x6000, 9)
	ld := c.Load(r.cycle, 0x6000)
	r.wait(ld)
	if ld.Value != 9 {
		t.Fatalf("load bypassed older store: got %d", ld.Value)
	}
}

func TestOzQBackpressure(t *testing.T) {
	r := newRig(t, func(p *Params) { p.OzQSize = 4 })
	c := r.fab.Controller(0)
	r.step(1)
	n := 0
	for c.CanAccept() {
		c.Store(r.cycle, uint64(0x7000+n*128), uint64(n))
		n++
	}
	if n != 4 {
		t.Errorf("accepted %d entries, want 4", n)
	}
	// The refusal is sticky on the retire epoch: the OzQ stays full on
	// every cycle the epoch holds still, and the first cycle it accepts
	// again is one on which the epoch moved.
	epoch, count, sticky := c.Refusal()
	if epoch != &c.epoch || count != nil || !sticky {
		t.Fatalf("Refusal() = (%p, %p, %v), want the retire epoch, no counter, sticky", epoch, count, sticky)
	}
	seen := *epoch
	for i := 0; i < 2000 && !c.CanAccept(); i++ {
		r.step(1)
		if *epoch == seen && c.CanAccept() {
			t.Fatalf("cycle %d: the OzQ accepts with its epoch unmoved", r.cycle)
		}
	}
	if !c.CanAccept() {
		t.Error("OzQ never drained")
	}

	// A walk that retires several entries moves the epoch once: stores to
	// four words of one cold line merge on one miss and commit together
	// when its fill arrives.
	r.until(func() bool { return len(c.ozq) == 0 })
	for i := 0; i < 4; i++ {
		c.Store(r.cycle, uint64(0x9000+8*i), uint64(i))
	}
	several := false
	for i := 0; i < 2000 && len(c.ozq) > 0; i++ {
		n, seen := len(c.ozq), c.epoch
		r.step(1)
		if retired := n - len(c.ozq); retired > 0 {
			if c.epoch != seen+1 {
				t.Fatalf("cycle %d: retiring %d entries moved the epoch by %d, want 1", r.cycle, retired, c.epoch-seen)
			}
			several = several || retired > 1
		}
	}
	if !several {
		t.Error("no tick retired the merged stores together")
	}
}

func syncParams(p *Params) {
	p.HWQueues = true
	p.WriteForward = true
}

func TestSyncOptiFIFO(t *testing.T) {
	r := newRig(t, syncParams)
	prod, cons := r.fab.Controller(0), r.fab.Controller(1)
	r.step(1)
	var toks []*port.Token
	for i := 0; i < 20; i++ {
		tok, ok := prod.Produce(r.cycle, 2, uint64(100+i))
		if !ok {
			t.Fatalf("produce %d rejected", i)
		}
		toks = append(toks, tok)
		r.step(3)
	}
	for _, tok := range toks {
		r.wait(tok)
	}
	r.step(500) // let forwards propagate
	for i := 0; i < 20; i++ {
		tok, ok := cons.Consume(r.cycle, 2)
		if !ok {
			t.Fatalf("consume %d rejected", i)
		}
		r.wait(tok)
		if tok.Value != uint64(100+i) {
			t.Fatalf("consume %d = %d, want %d", i, tok.Value, 100+i)
		}
	}
	if prod.WrFwdsSent == 0 {
		t.Error("no write-forwards sent")
	}
	if cons.BulkAcksSent == 0 {
		t.Error("no bulk ACKs sent")
	}
}

func TestSyncOptiFullQueueDormant(t *testing.T) {
	r := newRig(t, syncParams)
	prod := r.fab.Controller(0)
	r.step(1)
	// Produce depth+4 items without any consumer.
	var last *port.Token
	for i := 0; i < 36; i++ {
		r.until(prod.CanAccept)
		tok, ok := prod.Produce(r.cycle, 0, uint64(i))
		if !ok {
			r.step(1)
			continue
		}
		last = tok
		r.step(2)
	}
	r.step(2000)
	// The overflow produces must still be pending (dormant), not
	// completed: only Depth items fit.
	if last.Done(r.cycle) {
		t.Error("produce beyond queue depth completed without a consumer")
	}
	// A consumer draining the queue unblocks them.
	cons := r.fab.Controller(1)
	for i := 0; i < 8; i++ {
		tok, ok := cons.Consume(r.cycle, 0)
		if !ok {
			t.Fatal("consume rejected")
		}
		r.wait(tok)
	}
	r.step(500)
	if !last.Done(r.cycle) {
		t.Error("dormant produce never woke after bulk ACK")
	}
}

func TestSyncOptiProbeFlushesPartialLine(t *testing.T) {
	r := newRig(t, func(p *Params) {
		syncParams(p)
		p.ConsumeTimeout = 40
	})
	prod, cons := r.fab.Controller(0), r.fab.Controller(1)
	r.step(1)
	// Produce only 3 items: less than a QLU line, so no forward happens.
	for i := 0; i < 3; i++ {
		tok, _ := prod.Produce(r.cycle, 1, uint64(7+i))
		r.wait(tok)
	}
	// The consume must eventually succeed via the probe path.
	tok, ok := cons.Consume(r.cycle, 1)
	if !ok {
		t.Fatal("consume rejected")
	}
	r.wait(tok)
	if tok.Value != 7 {
		t.Fatalf("consume got %d, want 7", tok.Value)
	}
	if cons.ProbesSent == 0 {
		t.Error("no probe sent for the partial line")
	}
}

func TestStreamCacheHits(t *testing.T) {
	r := newRig(t, func(p *Params) {
		syncParams(p)
		p.StreamCacheEntries = 64
	})
	prod, cons := r.fab.Controller(0), r.fab.Controller(1)
	r.step(1)
	for i := 0; i < 8; i++ { // exactly one line -> one forward
		tok, _ := prod.Produce(r.cycle, 0, uint64(i))
		r.wait(tok)
	}
	r.step(300)
	fast := 0
	for i := 0; i < 8; i++ {
		start := r.cycle
		tok, ok := cons.Consume(r.cycle, 0)
		if !ok {
			t.Fatal("consume rejected")
		}
		r.wait(tok)
		if tok.Value != uint64(i) {
			t.Fatalf("FIFO violated at %d", i)
		}
		if tok.DoneAt-start <= streamAddrGenLat {
			fast++
		}
	}
	if cons.StreamCacheHits() != 8 {
		t.Errorf("stream cache hits = %d, want 8", cons.StreamCacheHits())
	}
	if fast < 8 {
		t.Errorf("only %d consumes were stream-cache fast", fast)
	}
}

func TestMemOptiForwardTriggersOnFullLine(t *testing.T) {
	r := newRig(t, func(p *Params) {
		p.WriteForward = true
	})
	prod := r.fab.Controller(0)
	layout := testLayout()
	r.step(1)
	// Software-queue style: write data + set flag for all 8 slots of the
	// first line of queue 0.
	for s := 0; s < 8; s++ {
		d := prod.Store(r.cycle, layout.SlotAddr(0, s), uint64(s))
		r.wait(d)
		f := prod.Store(r.cycle, layout.FlagAddr(0, s), 1)
		r.wait(f)
	}
	// The last flag store hit its Modified line and committed in the OzQ
	// walk, which injected the forward behind it: the walk must not step
	// the forward on that tick, and the recomputed wake must cover it.
	var fwd *ozEntry
	for _, e := range prod.ozq {
		if e.kind == opForward {
			fwd = e
		}
	}
	if fwd == nil {
		t.Fatal("no forward in the OzQ after the line's last flag store")
	}
	if fwd.state != stWaitPort || fwd.readyAt != r.cycle+1 {
		t.Errorf("cycle %d: forward %v ready at %d, want wait-port ready at %d", r.cycle, fwd.state, fwd.readyAt, r.cycle+1)
	}
	if prod.WakeAt() > fwd.readyAt {
		t.Errorf("WakeAt() = %d, after the forward's ready cycle %d", prod.WakeAt(), fwd.readyAt)
	}
	r.step(1000)
	if prod.WrFwdsSent != 1 {
		t.Errorf("write-forwards sent = %d, want 1", prod.WrFwdsSent)
	}
	// The consumer's L2 should now hold the line.
	if r.fab.Controller(1).L2().Peek(layout.LineOf(0, 0)) == nil {
		t.Error("forwarded line absent from consumer L2")
	}
}

func TestExistingSendsNoForwards(t *testing.T) {
	r := newRig(t, nil)
	prod := r.fab.Controller(0)
	layout := testLayout()
	r.step(1)
	for s := 0; s < 8; s++ {
		r.wait(prod.Store(r.cycle, layout.SlotAddr(0, s), uint64(s)))
		r.wait(prod.Store(r.cycle, layout.FlagAddr(0, s), 1))
	}
	r.step(500)
	if prod.WrFwdsSent != 0 {
		t.Errorf("EXISTING sent %d forwards", prod.WrFwdsSent)
	}
}

func TestQuiesced(t *testing.T) {
	r := newRig(t, nil)
	c := r.fab.Controller(0)
	r.step(1)
	if !r.fab.Quiesced(r.cycle) {
		t.Error("fresh fabric not quiesced")
	}
	tok := c.Load(r.cycle, 0x9000)
	if r.fab.Quiesced(r.cycle) {
		t.Error("fabric quiesced with in-flight load")
	}
	r.wait(tok)
	r.step(5)
	if !r.fab.Quiesced(r.cycle) {
		t.Error("fabric not quiesced after drain")
	}
}

func TestPreloadWarmsCaches(t *testing.T) {
	r := newRig(t, nil)
	r.img.Write8(0xA000, 5)
	r.fab.PreloadRange(0xA000, 1)
	c := r.fab.Controller(0)
	r.step(1)
	start := r.cycle
	tok := c.Load(r.cycle, 0xA000)
	r.wait(tok)
	// L2 hit: port + array latency, well under a bus round trip.
	if tok.DoneAt-start > 12 {
		t.Errorf("preloaded load took %d cycles", tok.DoneAt-start)
	}
}

func TestL3EvictionStillCorrect(t *testing.T) {
	// Touch more lines than the L3 holds; values must remain correct.
	r := newRig(t, func(p *Params) {
		// Tiny L3 (4-way, 128B lines, 32 sets) to force capacity misses.
		p.L3.SizeBytes = 16 << 10
		p.L3.Ways = 4
	})
	c := r.fab.Controller(0)
	r.step(1)
	const n = 300
	for i := 0; i < n; i++ {
		r.img.Write8(uint64(0x100000+i*128), uint64(i))
	}
	for i := 0; i < n; i++ {
		tok := c.Load(r.cycle, uint64(0x100000+i*128))
		r.wait(tok)
		if tok.Value != uint64(i) {
			t.Fatalf("load %d got %d", i, tok.Value)
		}
	}
	if r.fab.MemAccesses == 0 {
		t.Error("expected main-memory accesses")
	}
}

func TestControllerSnapshotNonEmpty(t *testing.T) {
	r := newRig(t, syncParams)
	c := r.fab.Controller(0)
	r.step(1)
	c.Produce(r.cycle, 0, 1)
	if s := c.Snapshot(); len(s.OzQ) == 0 || len(s.Queues) == 0 {
		t.Errorf("snapshot misses the in-flight produce: %+v", s)
	}
}
