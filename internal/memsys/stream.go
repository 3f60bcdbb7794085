package memsys

import (
	"hfstream/internal/bus"
	"hfstream/internal/cache"
	"hfstream/internal/port"
	"hfstream/internal/stats"
)

// newDonelessToken returns a token nobody waits on (hardware-generated
// OzQ work items still carry one so shared code paths stay uniform); it
// is recycled by Tick's walk when the work item's slot retires.
func (c *Controller) newDonelessToken() *port.Token { return c.fab.tokens.Get(stats.L2) }

// ---- SYNCOPTI produce path ----

// resolveProduce runs when a produce instruction's L2 access completes:
// the occupancy counters arbitrate whether it may write its queue slot.
// Blocked produces go dormant in their OzQ slot without consuming ports
// (paper §4.4), unlike the recirculating software-queue requests.
func (c *Controller) resolveProduce(cycle uint64, e *ozEntry) {
	if e.slot != c.doneCum[e.q] {
		// In-order completion per queue: wait for the predecessor.
		e.state = stWaitSync
		e.tok.Loc = stats.PreL2
		return
	}
	if e.slot-c.ackedCum[e.q] >= uint64(c.p.Layout.Depth) {
		// Queue full: the producer also must not damage the consumer's
		// spatial locality by wrapping onto a line that is still being
		// consumed; bulk ACK granularity enforces exactly that.
		e.state = stWaitSync
		e.tok.Loc = stats.PreL2
		return
	}
	la := c.l2.LineAddr(e.addr)
	line := c.l2.Lookup(e.addr)
	switch {
	case line == nil:
		c.needLine(cycle, e, bus.ReadX)
		return
	case line.State == cache.Shared:
		c.needLine(cycle, e, bus.Upgrade)
		return
	}
	// Commit the queue item.
	c.fab.mem.Write8(e.addr, e.val)
	c.doneCum[e.q]++
	e.tok.Complete(cycle, e.val)
	e.state = stDone
	c.wakeStream(cycle, e.q, opProduce)
	if c.p.WriteForward && c.doneCum[e.q]%uint64(c.p.Layout.QLU) == 0 {
		c.sendStreamForward(cycle, e.q, la)
	}
}

// sendStreamForward pushes the just-completed streaming line to the
// consumer's L2. SYNCOPTI's forwarding logic lives in the cache controller
// and bypasses the OzQ, so it does not compete for L2 ports.
func (c *Controller) sendStreamForward(cycle uint64, q int, la uint64) {
	count := int(c.doneCum[q] - c.forwardedCum[q])
	if count <= 0 {
		return
	}
	start := c.forwardedCum[q]
	c.forwardedCum[q] = c.doneCum[q]
	c.WrFwdsSent++
	req := c.newReq()
	req.Kind, req.Addr, req.Src = bus.WriteForward, la, c.id
	req.Aux, req.Q, req.Slot = count, q, start
	req.Owner = c
	c.fab.submit(cycle, req)
}

// streamForwardDone finishes a granted SYNCOPTI write-forward: the
// consumer installs the items when the transfer completes.
func (c *Controller) streamForwardDone(r *bus.Req, done uint64) {
	drop, delay := c.fab.faults.ForwardFate(done, r.Q)
	if drop {
		// Injected loss: the forwarded items vanish in flight, so the
		// consumer's availability counter never advances.
		return
	}
	done += delay
	dest := c.fab.consumerOf(r.Q, c.id)
	dest.schedule(done, event{kind: evAcceptForward, q: int32(r.Q), slot: r.Slot, n: int32(r.Aux)})
}

// acceptStreamForward installs forwarded queue items at the consumer:
// the line lands in the L2, the occupancy counter advances, and the
// stream cache is filled by reverse-mapping the line to (queue, slot)
// pairs (paper §5).
func (c *Controller) acceptStreamForward(cycle uint64, q int, start uint64, count int) {
	for i := 0; i < count; i++ {
		slotCum := start + uint64(i)
		addr := c.p.Layout.SlotAddr(q, c.slotIdx(slotCum))
		c.install(cycle, c.l2.LineAddr(addr), cache.Shared)
		if c.sc != nil {
			c.sc.fill(q, slotCum, c.fab.mem.Read8(addr))
		}
	}
	c.availCum[q] += uint64(count)
	c.wakeStream(cycle, q, opConsume)
}

// ---- SYNCOPTI consume path ----

func (c *Controller) resolveConsume(cycle uint64, e *ozEntry) {
	if e.slot != c.consumedCum[e.q] {
		e.state = stWaitSync
		if !e.scHit {
			e.tok.Loc = stats.PreL2
		}
		return
	}
	if c.availCum[e.q] <= e.slot {
		// Queue empty: go dormant and arm the probe timeout that elicits
		// a partial-line flush from the producer (stream termination).
		e.state = stWaitSync
		if e.timeoutAt == 0 {
			e.timeoutAt = cycle + uint64(c.p.ConsumeTimeout)
		}
		if !e.scHit {
			e.tok.Loc = stats.PreL2
		}
		return
	}
	if e.scHit {
		// Data already delivered from the stream cache; this visit only
		// updates the occupancy counters.
		c.finishConsume(cycle, e, true)
		return
	}
	if c.l2.Lookup(e.addr) == nil {
		// Forwarded line was evicted before we got to it; demand-fetch.
		c.needLine(cycle, e, bus.Read)
		return
	}
	e.tok.Complete(cycle, c.fab.mem.Read8(e.addr))
	c.finishConsume(cycle, e, false)
}

func (c *Controller) finishConsume(cycle uint64, e *ozEntry, scHit bool) {
	c.consumedCum[e.q]++
	e.state = stDone
	if c.sc != nil && !scHit {
		// Keep the stream cache coherent: drop any stale copy.
		c.sc.take(e.q, e.slot)
	}
	c.wakeStream(cycle, e.q, opConsume)
	if c.consumedCum[e.q]%uint64(c.p.Layout.QLU) == 0 {
		c.sendBulkAck(cycle, e.q, c.p.Layout.QLU)
	}
}

// sendBulkAck notifies the producer's occupancy tracker that a whole
// line's worth of items has been consumed.
func (c *Controller) sendBulkAck(cycle uint64, q, n int) {
	c.BulkAcksSent++
	req := c.newReq()
	req.Kind, req.Src, req.Q, req.Aux = bus.BulkAck, c.id, q, n
	req.Owner = c
	c.fab.submit(cycle, req)
}

// bulkAckDone finishes a granted bulk ACK at the consumer side: the
// producer's occupancy tracker advances when the message lands.
func (c *Controller) bulkAckDone(r *bus.Req, done uint64) {
	if c.fab.faults.AckSwallowed(done, r.Q) {
		// Injected loss: the producer's occupancy view goes stale.
		return
	}
	dest := c.fab.producerOf(r.Q, c.id)
	dest.schedule(done, event{kind: evBulkAck, q: int32(r.Q), n: int32(r.Aux)})
}

func (c *Controller) onBulkAck(cycle uint64, q, n int) {
	c.ackedCum[q] += uint64(n)
	c.wakeStream(cycle, q, opProduce)
}

// ---- dormant entries, probes and wakes ----

// tickDormant handles a dormant consume whose probe timeout is due. Tick
// calls it only then; only a consume ever arms timeoutAt.
func (c *Controller) tickDormant(cycle uint64, e *ozEntry) {
	if c.availCum[e.q] > e.slot {
		// Data arrived; the wake already requeued us (or will).
		e.timeoutAt = 0
		return
	}
	if !c.probeOut[e.q] {
		c.probeOut[e.q] = true
		c.ProbesSent++
		req := c.newReq()
		req.Kind, req.Src, req.Q = bus.Probe, c.id, e.q
		req.Owner = c
		c.fab.submit(cycle, req)
	}
	e.timeoutAt = cycle + uint64(c.p.ConsumeTimeout)
}

// probeDone finishes a granted probe. The grant handler stowed the flush
// payload in r.Aux (count) and r.Slot (start).
func (c *Controller) probeDone(r *bus.Req, done uint64) {
	q := r.Q
	if r.Aux > 0 {
		// Item-carrying flushes travel the forward path and share its
		// injected fate; empty replies carry nothing to lose.
		drop, delay := c.fab.faults.ForwardFate(done, q)
		if drop {
			// Still clear the probe-outstanding flag so the consumer keeps
			// probing (and the hang is detectable).
			c.schedule(done, event{kind: evProbeClear, q: int32(q)})
			return
		}
		done += delay
	}
	c.schedule(done, event{kind: evProbeReply, q: int32(q), n: int32(r.Aux), slot: r.Slot})
}

// onProbeReply installs the partial-line flush elicited by a probe.
// count items starting at cumulative slot start become available.
func (c *Controller) onProbeReply(cycle uint64, q, count int, start uint64) {
	c.probeOut[q] = false
	if count > 0 {
		c.acceptStreamForward(cycle, q, start, count)
	}
}

// flushForProbe runs at the producer when a probe is granted: it returns
// the items produced but not yet forwarded and marks them forwarded.
func (c *Controller) flushForProbe(q int) (start uint64, count int) {
	start = c.forwardedCum[q]
	count = int(c.doneCum[q] - c.forwardedCum[q])
	if count > 0 {
		c.forwardedCum[q] = c.doneCum[q]
		// The flushed line(s) leave this cache in shared state.
		for i := 0; i < count; i++ {
			addr := c.p.Layout.SlotAddr(q, c.slotIdx(start+uint64(i)))
			c.downgradeLine(c.l2.LineAddr(addr))
		}
	}
	return start, count
}

// wakeStream requeues dormant produce/consume entries of queue q so they
// re-check their synchronization condition.
func (c *Controller) wakeStream(cycle uint64, q int, kind ozKind) {
	for _, e := range c.ozq {
		if e.state == stWaitSync && e.kind == kind && e.q == q {
			e.state = stWaitPort
			e.readyAt = cycle
		}
	}
}
