package memsys

import (
	"testing"

	"hfstream/internal/port"
	"hfstream/internal/queue"
)

// TestSyncOptiDenseLayout runs the Q64 configuration: 64-entry queues
// packed 16 items per line (no flag words), bulk ACKs every 16 items.
func TestSyncOptiDenseLayout(t *testing.T) {
	r := newRig(t, func(p *Params) {
		syncParams(p)
		p.Layout = queue.Layout{NumQueues: 8, Depth: 64, QLU: 16, LineBytes: 128}
	})
	prod, cons := r.fab.Controller(0), r.fab.Controller(1)
	r.step(1)
	const n = 48
	for i := 0; i < n; i++ {
		tok, ok := prod.Produce(r.cycle, 0, uint64(i*2))
		if !ok {
			r.step(1)
			tok, ok = prod.Produce(r.cycle, 0, uint64(i*2))
			if !ok {
				t.Fatalf("produce %d rejected twice", i)
			}
		}
		r.wait(tok)
	}
	r.step(300)
	for i := 0; i < n; i++ {
		tok, ok := cons.Consume(r.cycle, 0)
		if !ok {
			t.Fatalf("consume %d rejected", i)
		}
		r.wait(tok)
		if tok.Value != uint64(i*2) {
			t.Fatalf("consume %d = %d, want %d", i, tok.Value, i*2)
		}
	}
	// 48 items = 3 full 16-item lines -> 3 forwards, 3 bulk ACKs.
	if prod.WrFwdsSent != 3 {
		t.Errorf("forwards = %d, want 3", prod.WrFwdsSent)
	}
	if cons.BulkAcksSent != 3 {
		t.Errorf("bulk ACKs = %d, want 3", cons.BulkAcksSent)
	}
}

// TestSyncOptiSurvivesTinyL2 evicts forwarded stream lines before they
// are consumed; the consumer must demand-fetch and still see FIFO order.
func TestSyncOptiSurvivesTinyL2(t *testing.T) {
	r := newRig(t, func(p *Params) {
		syncParams(p)
		p.L2.SizeBytes = 4 << 10 // 32 lines: constant capacity pressure
		p.L2.Ways = 2
	})
	prod, cons := r.fab.Controller(0), r.fab.Controller(1)
	r.step(1)
	const n = 24 // within the queue depth: the producer never blocks
	done := 0
	for i := 0; i < n; i++ {
		for {
			tok, ok := prod.Produce(r.cycle, 3, uint64(1000+i))
			if ok {
				r.wait(tok)
				break
			}
			r.step(1)
		}
		// Interleave noise loads that thrash the consumer's tiny L2.
		noise := cons.Load(r.cycle, uint64(0x40_0000+i*128))
		r.wait(noise)
		done++
	}
	for i := 0; i < n; i++ {
		var tok *port.Token
		for {
			var ok bool
			tok, ok = cons.Consume(r.cycle, 3)
			if ok {
				break
			}
			r.step(1)
		}
		r.wait(tok)
		if tok.Value != uint64(1000+i) {
			t.Fatalf("consume %d = %d, want %d (FIFO broken under eviction)", i, tok.Value, 1000+i)
		}
	}
}

// TestProbeWithNothingProduced re-arms and eventually succeeds once the
// producer shows up.
func TestProbeWithNothingProduced(t *testing.T) {
	r := newRig(t, func(p *Params) {
		syncParams(p)
		p.ConsumeTimeout = 30
	})
	prod, cons := r.fab.Controller(0), r.fab.Controller(1)
	r.step(1)
	tok, ok := cons.Consume(r.cycle, 5)
	if !ok {
		t.Fatal("consume not accepted into the OzQ")
	}
	// Let several empty probes fire.
	r.step(200)
	if tok.Done(r.cycle) {
		t.Fatal("consume completed without data")
	}
	if cons.ProbesSent == 0 {
		t.Fatal("no probes while starving")
	}
	p, _ := prod.Produce(r.cycle, 5, 42)
	r.wait(p)
	r.wait(tok)
	if tok.Value != 42 {
		t.Fatalf("value %d", tok.Value)
	}
}

// TestMemOptiForwardSkippedIfLineStolen: if the consumer demand-fetches
// the line before the forward wins a port, the forward becomes a no-op
// rather than corrupting state.
func TestMemOptiForwardSkippedIfLineStolen(t *testing.T) {
	r := newRig(t, func(p *Params) {
		p.WriteForward = true
		p.ForwardThroughOzQ = true
		p.L2Ports = 1 // starve the forward work item
	})
	prod, cons := r.fab.Controller(0), r.fab.Controller(1)
	layout := testLayout()
	r.step(1)
	for s := 0; s < 8; s++ {
		r.wait(prod.Store(r.cycle, layout.SlotAddr(0, s), uint64(s)))
		r.wait(prod.Store(r.cycle, layout.FlagAddr(0, s), 1))
	}
	// Steal the line with a demand load before the forward drains.
	ld := cons.Load(r.cycle, layout.SlotAddr(0, 0))
	r.wait(ld)
	if ld.Value != 0 {
		t.Fatalf("stolen line value %d", ld.Value)
	}
	r.step(2000)
	if !r.fab.Quiesced(r.cycle) {
		t.Fatal("forward work item never drained")
	}
}

// TestManyFencesDrain: back-to-back fences interleaved with stores keep
// strict order and all complete.
func TestManyFencesDrain(t *testing.T) {
	r := newRig(t, nil)
	c := r.fab.Controller(0)
	r.step(1)
	var toks []*port.Token
	var kinds []string
	for i := 0; i < 6; i++ {
		for !c.CanAccept() {
			r.step(1)
		}
		toks = append(toks, c.Store(r.cycle, uint64(0x50000+i*4096), uint64(i)))
		kinds = append(kinds, "store")
		for !c.CanAccept() {
			r.step(1)
		}
		toks = append(toks, c.Fence(r.cycle))
		kinds = append(kinds, "fence")
	}
	for _, tok := range toks {
		r.wait(tok)
	}
	for i := 1; i < len(toks); i++ {
		if kinds[i] == "fence" && toks[i].DoneAt < toks[i-1].DoneAt {
			t.Errorf("fence %d completed before its store", i)
		}
	}
}

// streamDrained reports whether the controller's cumulative counters say
// every produce it issued completed and every consume it issued returned.
func streamDrained(c *Controller) bool {
	for _, q := range c.Snapshot().Queues {
		if q.SentCum != q.DoneCum || q.ConsumeCum != q.ConsumedCum {
			return false
		}
	}
	return true
}

// TestStreamDrainedAccounting verifies the cumulative stream counters the
// deadlock diagnosis reports: issued and completed agree exactly when
// nothing is in flight.
func TestStreamDrainedAccounting(t *testing.T) {
	r := newRig(t, syncParams)
	prod, cons := r.fab.Controller(0), r.fab.Controller(1)
	r.step(1)
	if !streamDrained(prod) || !streamDrained(cons) {
		t.Fatal("fresh controllers should be drained")
	}
	tok, _ := prod.Produce(r.cycle, 0, 1)
	if streamDrained(prod) {
		t.Fatal("pending produce but drained")
	}
	r.wait(tok)
	if !streamDrained(prod) {
		t.Fatal("completed produce but not drained")
	}
	ctok, ok := cons.Consume(r.cycle, 0)
	if !ok {
		t.Fatal("consume rejected")
	}
	if streamDrained(cons) {
		t.Fatal("pending consume but drained")
	}
	r.wait(ctok)
	if !streamDrained(cons) {
		t.Fatal("completed consume but not drained")
	}
}
