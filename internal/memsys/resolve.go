package memsys

import (
	"hfstream/internal/bus"
	"hfstream/internal/cache"
	"hfstream/internal/stats"
)

// mshr is one outstanding-miss slot: a line with a bus transaction in
// flight, plus any snoop action deferred until the fill commits.
type mshr struct {
	addr     uint64
	deferred bool
	snoop    cache.State
}

// mshrFor returns the outstanding-miss slot for la, if any.
func (c *Controller) mshrFor(la uint64) *mshr {
	for i := range c.mshrs {
		if c.mshrs[i].addr == la {
			return &c.mshrs[i]
		}
	}
	return nil
}

// resolve handles an entry whose L2 array access just finished.
func (c *Controller) resolve(cycle uint64, e *ozEntry) {
	switch e.kind {
	case opLoad:
		c.resolveLoad(cycle, e)
	case opStore:
		c.resolveStore(cycle, e)
	case opProduce:
		c.resolveProduce(cycle, e)
	case opConsume:
		c.resolveConsume(cycle, e)
	case opForward:
		c.resolveForward(cycle, e)
	}
}

func (c *Controller) retryLater(cycle uint64, e *ozEntry) {
	e.state = stWaitPort
	e.readyAt = cycle + recircInterval
}

func (c *Controller) resolveLoad(cycle uint64, e *ozEntry) {
	if c.olderStoreTo(e.addr, e.seq) {
		// Store-to-load ordering: an older store to the same word has not
		// committed yet; recirculate.
		c.RecircRetries++
		c.retryLater(cycle, e)
		return
	}
	if c.l2.Lookup(e.addr) != nil {
		e.tok.Complete(cycle, c.fab.mem.Read8(e.addr))
		e.state = stDone
		c.installL1(e.addr)
		return
	}
	c.needLine(cycle, e, bus.Read)
}

func (c *Controller) resolveStore(cycle uint64, e *ozEntry) {
	if c.olderStoreTo(e.addr, e.seq) {
		// Store-store ordering to the same word.
		c.RecircRetries++
		c.retryLater(cycle, e)
		return
	}
	line := c.l2.Lookup(e.addr)
	switch {
	case line == nil:
		c.needLine(cycle, e, bus.ReadX)
	case line.State == cache.Shared:
		c.needLine(cycle, e, bus.Upgrade)
	default: // Modified: commit
		c.fab.mem.Write8(e.addr, e.val)
		e.tok.Complete(cycle, e.val)
		e.state = stDone
		c.storeDone(e)
		c.afterStreamStore(cycle, e, line)
	}
}

// needLine parks the entry until a bus transaction brings its line into
// the required state, merging with an in-flight request when one exists.
func (c *Controller) needLine(cycle uint64, e *ozEntry, kind bus.Kind) {
	la := c.l2.LineAddr(e.addr)
	e.state = stWaitFill
	e.tok.Loc = stats.Bus
	if c.mshrFor(la) != nil {
		return
	}
	c.mshrs = append(c.mshrs, mshr{addr: la})
	req := c.newReq()
	req.Kind, req.Addr, req.Src, req.Owner = kind, la, c.id, c
	c.fab.submit(cycle, req)
}

// ReqNote implements bus.Owner: line-granting transactions re-attribute
// the tokens waiting on the line to whoever services the miss.
func (c *Controller) ReqNote(r *bus.Req, supplier int) {
	switch r.Kind {
	case bus.Read, bus.ReadX, bus.Upgrade:
		c.noteSupplier(r.Addr, supplier)
	}
}

// ReqDone implements bus.Owner: it schedules the completion-side work of
// a granted transaction from the request's fields (the context the old
// per-request closures captured) and recycles the request.
func (c *Controller) ReqDone(r *bus.Req, done uint64) {
	switch r.Kind {
	case bus.Read, bus.ReadX, bus.Upgrade:
		c.schedule(done, event{kind: evFill, addr: r.Addr})
	case bus.WriteForward:
		if c.p.HWQueues {
			c.streamForwardDone(r, done)
		} else {
			c.memoptiForwardDone(r, done)
		}
	case bus.BulkAck:
		c.bulkAckDone(r, done)
	case bus.Probe:
		c.probeDone(r, done)
	}
	c.reqFree = append(c.reqFree, r)
}

// memoptiForwardDone finishes a granted MEMOPTI write-forward: the OzQ
// slot retires when the transfer completes and the consumer installs the
// line at the same cycle.
func (c *Controller) memoptiForwardDone(r *bus.Req, done uint64) {
	c.schedule(done, event{kind: evForwardDone, e: r.Ref.(*ozEntry)})
	la := r.Addr
	var dest *Controller
	if q, _, ok := c.p.Layout.SlotOfAddr(la); ok {
		dest = c.fab.consumerOf(q, c.id)
	} else {
		dest = c.fab.other(c.id)
	}
	dest.schedule(done, event{kind: evAcceptLine, addr: la})
}

// noteSupplier updates the attribution bucket of every token waiting on
// the given line, based on who services the miss.
func (c *Controller) noteSupplier(la uint64, supplier int) {
	var b stats.Bucket
	switch supplier {
	case bus.SupplierL3:
		b = stats.L3
	case bus.SupplierMem:
		b = stats.Mem
	default:
		b = stats.Bus
	}
	for _, e := range c.ozq {
		if e.state == stWaitFill && e.kind != opForward && c.l2.LineAddr(e.addr) == la {
			e.tok.Loc = b
		}
	}
}

// fill completes a line-granting bus transaction. Coherence state was
// already applied at grant time by the fabric (the address/snoop phase);
// fill resolves the waiting entries immediately — the pending miss
// commits as its data arrives, before a rival core's invalidation can
// steal the line again (avoiding the classic write-write livelock; the
// losing core simply re-requests, which is the false-sharing ping-pong
// the paper's software queues exhibit).
func (c *Controller) fill(cycle, la uint64) {
	deferred := false
	var snoop cache.State
	for i := range c.mshrs {
		if c.mshrs[i].addr == la {
			deferred, snoop = c.mshrs[i].deferred, c.mshrs[i].snoop
			last := len(c.mshrs) - 1
			c.mshrs[i] = c.mshrs[last]
			c.mshrs = c.mshrs[:last]
			break
		}
	}
	for _, e := range c.ozq {
		if e.state == stWaitFill && e.kind != opForward && c.l2.LineAddr(e.addr) == la {
			e.state = stAccess
			e.readyAt = cycle
			e.tok.Loc = stats.L2
			c.resolve(cycle, e)
		}
	}
	// Apply snoops that arrived while the fill was in flight.
	if deferred {
		if snoop == cache.Invalid {
			c.applyInvalidate(la)
		} else {
			c.applyDowngrade(la)
		}
	}
}

// install puts a line into the L2, evicting (and writing back) a victim
// if needed, and keeping the write-through L1 inclusive.
func (c *Controller) install(cycle, la uint64, st cache.State) {
	victim, evicted := c.l2.Insert(la, st)
	if evicted {
		c.l1.InvalidateRange(victim.Addr, uint64(c.p.L2.LineBytes))
		if victim.State == cache.Modified {
			c.fab.writeback(cycle, c.id, victim.Addr)
		}
	}
}

func (c *Controller) installL1(addr uint64) {
	c.l1.Insert(addr, cache.Shared)
}

// invalidateLine is called by the fabric when a snoop invalidates one of
// this controller's lines. If this controller has its own fill in flight
// for the line, the invalidation defers until the fill commits.
func (c *Controller) invalidateLine(la uint64) {
	if m := c.mshrFor(la); m != nil {
		m.deferred, m.snoop = true, cache.Invalid
		return
	}
	c.applyInvalidate(la)
}

func (c *Controller) applyInvalidate(la uint64) {
	c.l2.Invalidate(la)
	// The write-through L1 may hold fragments of the line regardless of
	// the L2 state; keep it inclusive.
	c.l1.InvalidateRange(la, uint64(c.p.L2.LineBytes))
}

// downgradeLine is called by the fabric when a snoop hit forces M -> S,
// with the same deferral rule as invalidateLine.
func (c *Controller) downgradeLine(la uint64) {
	if m := c.mshrFor(la); m != nil {
		if !m.deferred || m.snoop != cache.Invalid {
			m.deferred, m.snoop = true, cache.Shared
		}
		return
	}
	c.applyDowngrade(la)
}

func (c *Controller) applyDowngrade(la uint64) {
	if line := c.l2.Peek(la); line != nil && line.State == cache.Modified {
		line.State = cache.Shared
	}
}

// ---- software-queue (EXISTING / MEMOPTI) streaming support ----

// afterStreamStore runs MEMOPTI's QLU-aware forwarding bookkeeping after a
// committed store: once all QLU entries of a streaming line have had their
// full flags set, the line is queued for forwarding to the consumer's L2.
func (c *Controller) afterStreamStore(cycle uint64, e *ozEntry, line *cache.Line) {
	if !c.p.WriteForward || c.p.HWQueues || !c.p.Layout.InRegion(e.addr) {
		return
	}
	slotBytes := uint64(c.p.Layout.SlotBytes())
	if e.addr%slotBytes != 8 || e.val == 0 {
		return // not a flag-set store
	}
	slotInLine := (e.addr % uint64(c.p.Layout.LineBytes)) / slotBytes
	line.StreamWritten |= 1 << slotInLine
	if popcount(line.StreamWritten) >= uint32(c.p.Layout.QLU) {
		line.StreamWritten = 0
		c.pendingForwards = append(c.pendingForwards, line.Addr)
		c.injectForwards(cycle)
	}
}

// injectForwards moves queued MEMOPTI forwards into free OzQ slots, where
// they compete with regular requests for L2 ports (the paper's
// write-forwarding OzQ pollution).
func (c *Controller) injectForwards(cycle uint64) {
	for len(c.pendingForwards) > 0 && c.CanAccept() {
		// Pop by copying down, so the backing array keeps its capacity
		// and the next forward appends without allocating.
		la := c.pendingForwards[0]
		c.pendingForwards = c.pendingForwards[:copy(c.pendingForwards, c.pendingForwards[1:])]
		e := c.alloc()
		*e = ozEntry{
			kind: opForward, state: stWaitPort, addr: la,
			tok: c.newDonelessToken(), readyAt: cycle + 1,
		}
		c.push(e)
	}
}

// resolveForward reads the line out of the local L2 and pushes it to the
// consumer over the shared bus; the OzQ slot is held until the transfer
// completes.
func (c *Controller) resolveForward(cycle uint64, e *ozEntry) {
	line := c.l2.Peek(e.addr)
	if line == nil || line.State != cache.Modified {
		// The line was stolen or demand-fetched before we forwarded it;
		// nothing to do.
		e.state = stDone
		return
	}
	e.state = stWaitFill
	c.WrFwdsSent++
	// The entry rides along as Ref: it stays in stWaitFill (so Tick's walk
	// cannot recycle it) until the scheduled evForwardDone retires it.
	req := c.newReq()
	req.Kind, req.Addr, req.Src, req.Aux = bus.WriteForward, e.addr, c.id, c.p.Layout.QLU
	req.Owner, req.Ref = c, e
	c.fab.submit(cycle, req)
}

// acceptForwardLine installs a forwarded software-queue line (MEMOPTI).
func (c *Controller) acceptForwardLine(cycle, la uint64) {
	c.install(cycle, la, cache.Shared)
}

func popcount(x uint32) uint32 {
	var n uint32
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
