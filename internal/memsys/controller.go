package memsys

import (
	"fmt"

	"hfstream/internal/bus"
	"hfstream/internal/cache"
	"hfstream/internal/evq"
	"hfstream/internal/port"
	"hfstream/internal/stats"
)

type ozKind int

const (
	opLoad ozKind = iota
	opStore
	opFence
	opProduce
	opConsume
	opForward // MEMOPTI write-forward work item occupying an OzQ slot
)

func (k ozKind) String() string {
	switch k {
	case opLoad:
		return "load"
	case opStore:
		return "store"
	case opFence:
		return "fence"
	case opProduce:
		return "produce"
	case opConsume:
		return "consume"
	case opForward:
		return "forward"
	default:
		return fmt.Sprintf("ozKind(%d)", int(k))
	}
}

type ozState int

const (
	stWaitPort ozState = iota // waiting to win an L2 port
	stAccess                  // L2 array access in flight
	stWaitFill                // waiting for a bus transaction on its line
	stWaitSync                // dormant: waiting on queue synchronization
	stDone
)

func (s ozState) String() string {
	switch s {
	case stWaitPort:
		return "wait-port"
	case stAccess:
		return "access"
	case stWaitFill:
		return "wait-fill"
	case stWaitSync:
		return "wait-sync"
	case stDone:
		return "done"
	default:
		return fmt.Sprintf("ozState(%d)", int(s))
	}
}

// ozEntry is one slot of the L2 controller's ordered transaction queue
// (the Itanium 2 OzQ), whose entries also serve as MSHRs.
type ozEntry struct {
	kind  ozKind
	state ozState
	seq   uint64
	addr  uint64 // effective address (line-aligned for opForward)
	val   uint64 // store value
	q     int    // queue number (produce/consume/forward)
	slot  uint64 // cumulative stream slot index (produce/consume)
	tok   *port.Token

	readyAt   uint64 // cycle the current phase ends / next retry
	timeoutAt uint64 // consume empty-queue probe deadline (0 = unset)
	scHit     bool   // consume serviced by the stream cache
}

// evKind discriminates the controller's scheduled events. Events used to
// be closures; the typed form costs no allocation per event and makes the
// schedule inspectable.
type evKind uint8

const (
	evFill          evKind = iota // a bus transaction delivered addr's line
	evForwardDone                 // a MEMOPTI forward's OzQ slot may retire
	evAcceptLine                  // install a forwarded MEMOPTI line
	evAcceptForward               // install forwarded SYNCOPTI queue items
	evBulkAck                     // the consumer bulk-acked n items
	evProbeReply                  // a probe reply (possibly empty) arrived
	evProbeClear                  // clear the probe-outstanding flag only
)

// event is one scheduled controller action; the meaning of the payload
// fields depends on kind. Queue indexes and item counts are small, so
// 32-bit fields keep the event (copied on every heap sift) compact.
type event struct {
	addr uint64   // line address (fills, MEMOPTI forwards)
	slot uint64   // cumulative starting slot (stream forwards)
	e    *ozEntry // the OzQ slot behind a MEMOPTI forward
	q    int32
	n    int32 // item count (forwards, acks, probe replies)
	kind evKind
}

// Controller is one core's private memory-side machinery: L1D, L2 array,
// the OzQ, and the streaming support selected by Params. It implements
// port.Mem always and port.Stream when HWQueues is enabled (SYNCOPTI).
type Controller struct {
	id  int
	p   Params
	fab *Fabric
	l1  *cache.Cache
	l2  *cache.Cache

	ozq     []*ozEntry
	free    []*ozEntry // recycled entries (the OzQ is the kernel's hottest allocation site)
	seq     uint64
	events  evq.Queue[event]
	reqFree []*bus.Req // recycled bus requests (recyclable once ReqDone returns)

	// wakeAt caches the earliest cycle at which ticking this controller
	// can do anything: the next scheduled event, retry, access completion,
	// or probe timeout. Mutations that create work lower it (noteWake);
	// Tick recomputes it from live state. The wake-gated kernel skips
	// Tick calls before it.
	wakeAt uint64
	// scanWake accumulates the OzQ entries' wake contributions during the
	// tick's compact pass (see entryWake); Tick combines it with the event
	// queue's minimum to recompute wakeAt without a dedicated scan.
	scanWake uint64

	// stores lists the OzQ's incomplete store entries in seq order, so the
	// store-to-load ordering check on every load walks only the (few)
	// stores in flight instead of the whole OzQ. Entries join at issue and
	// leave when their store commits.
	stores []*ozEntry

	// mshrs tracks lines with an in-flight bus transaction (MSHR merge):
	// entries that need such a line wait in stWaitFill. Each slot also
	// carries any snoop action (invalidate/downgrade) deferred against the
	// pending fill; deferrals apply after the fill commits its waiting
	// accesses, guaranteeing forward progress under write-write contention
	// (false sharing ping-pong instead of livelock). Outstanding misses
	// are few, so a linear table beats a hash map on the snoop/fill path.
	mshrs []mshr

	// Producer-side per-queue stream state (cumulative item counts).
	sentCum      []uint64 // produce slots assigned at issue
	doneCum      []uint64 // produces completed (data written)
	ackedCum     []uint64 // items bulk-acked by the consumer
	forwardedCum []uint64 // items covered by forwards/probe flushes

	// Consumer-side per-queue stream state.
	consumeIssueCum []uint64 // consume slots assigned at issue
	availCum        []uint64 // items made available by forwards/probes
	consumedCum     []uint64 // consumes completed
	probeOut        []bool   // a probe for this queue is in flight

	// pendingForwards holds MEMOPTI write-forward work items waiting for
	// a free OzQ slot.
	pendingForwards []pendingFwd

	sc *streamCache

	portUsed  int
	portCycle uint64

	// depthMask is Layout.Depth-1 when the depth is a power of two (the
	// standard configurations), letting the hot slot-index reduction mask
	// instead of divide; -1 selects the modulo fallback.
	depthMask int

	// Stats.
	WrFwdsSent     uint64
	BulkAcksSent   uint64
	ProbesSent     uint64
	RecircRetries  uint64
	PortConflicts  uint64
	ProduceStalls  uint64 // produce resolutions deferred on full queue
	ConsumeStalls  uint64 // consume resolutions deferred on empty queue
	LoadsServiced  uint64
	StoresServiced uint64
}

func newController(id int, p Params, fab *Fabric) *Controller {
	nq := p.Layout.NumQueues
	c := &Controller{
		id:  id,
		p:   p,
		fab: fab,
		l1:  cache.New(p.L1),
		l2:  cache.New(p.L2),

		sentCum:         make([]uint64, nq),
		doneCum:         make([]uint64, nq),
		ackedCum:        make([]uint64, nq),
		forwardedCum:    make([]uint64, nq),
		consumeIssueCum: make([]uint64, nq),
		availCum:        make([]uint64, nq),
		consumedCum:     make([]uint64, nq),
		probeOut:        make([]bool, nq),
		wakeAt:          ^uint64(0),
		depthMask:       -1,
	}
	if d := p.Layout.Depth; d&(d-1) == 0 {
		c.depthMask = d - 1
	}
	if p.StreamCacheEntries > 0 {
		c.sc = newStreamCache(p.StreamCacheEntries)
	}
	return c
}

// ID returns the controller's core index.
func (c *Controller) ID() int { return c.id }

// L1 returns the L1D array (for tests and stats).
func (c *Controller) L1() *cache.Cache { return c.l1 }

// L2 returns the L2 array (for tests and stats).
func (c *Controller) L2() *cache.Cache { return c.l2 }

// StreamCacheHits returns stream cache hit count (0 without a stream cache).
func (c *Controller) StreamCacheHits() uint64 {
	if c.sc == nil {
		return 0
	}
	return c.sc.Hits
}

// noteWake lowers the controller's cached wake; call whenever new work
// appears that the next Tick must look at.
func (c *Controller) noteWake(at uint64) {
	if at < c.wakeAt {
		c.wakeAt = at
	}
}

// WakeAt returns the cached earliest cycle at which ticking this
// controller can have any effect. Ticking earlier is a harmless no-op.
func (c *Controller) WakeAt() uint64 { return c.wakeAt }

func (c *Controller) schedule(at uint64, ev event) {
	c.events.Push(at, ev)
	c.noteWake(at)
}

// runEvent executes one due scheduled event.
func (c *Controller) runEvent(cycle uint64, ev event) {
	switch ev.kind {
	case evFill:
		c.fill(cycle, ev.addr)
	case evForwardDone:
		ev.e.state = stDone
	case evAcceptLine:
		c.acceptForwardLine(cycle, ev.addr)
	case evAcceptForward:
		c.acceptStreamForward(cycle, int(ev.q), ev.slot, int(ev.n))
	case evBulkAck:
		c.onBulkAck(cycle, int(ev.q), int(ev.n))
	case evProbeReply:
		c.onProbeReply(cycle, int(ev.q), int(ev.n), ev.slot)
	case evProbeClear:
		c.probeOut[ev.q] = false
	}
}

// newReq returns a zeroed bus request, recycling a retired one when
// possible (requests are recyclable once their ReqDone dispatch returns).
func (c *Controller) newReq() *bus.Req {
	if n := len(c.reqFree); n > 0 {
		r := c.reqFree[n-1]
		c.reqFree = c.reqFree[:n-1]
		*r = bus.Req{}
		return r
	}
	return &bus.Req{}
}

// CanAccept implements port.Mem.
func (c *Controller) CanAccept() bool { return len(c.ozq) < c.p.OzQSize }

// slotIdx reduces a cumulative slot index modulo the queue depth.
func (c *Controller) slotIdx(slot uint64) int {
	if c.depthMask >= 0 {
		return int(slot) & c.depthMask
	}
	return int(slot) % c.p.Layout.Depth
}

func (c *Controller) push(e *ozEntry) *ozEntry {
	c.seq++
	e.seq = c.seq
	c.ozq = append(c.ozq, e)
	c.noteWake(e.readyAt)
	return e
}

// alloc returns a zeroed OzQ entry, reusing a retired one when possible.
// Entries are recycled in compact once they reach stDone; nothing holds a
// reference past that point (tokens are separate objects the core owns).
func (c *Controller) alloc() *ozEntry {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free = c.free[:n-1]
		return e
	}
	return &ozEntry{}
}

// Load implements port.Mem. L1 hits complete without an OzQ entry.
func (c *Controller) Load(cycle, addr uint64) *port.Token {
	tok := c.fab.tokens.Get(stats.PreL2)
	if c.l1.Lookup(addr) != nil && !c.olderStoreTo(addr, c.seq+1) {
		tok.Complete(cycle+uint64(c.p.L1.Latency), c.fab.mem.Read8(addr))
		return tok
	}
	tok.Loc = stats.L2
	e := c.alloc()
	*e = ozEntry{kind: opLoad, state: stWaitPort, addr: addr, tok: tok, readyAt: cycle + 1}
	c.push(e)
	return tok
}

// Store implements port.Mem. The L1 is write-through no-allocate; every
// store takes an OzQ entry to the L2.
func (c *Controller) Store(cycle, addr, val uint64) *port.Token {
	tok := c.fab.tokens.Get(stats.L2)
	e := c.alloc()
	*e = ozEntry{kind: opStore, state: stWaitPort, addr: addr, val: val, tok: tok, readyAt: cycle + 1}
	c.push(e)
	c.stores = append(c.stores, e)
	return tok
}

// Fence implements port.Mem.
func (c *Controller) Fence(cycle uint64) *port.Token {
	tok := c.fab.tokens.Get(stats.L2)
	e := c.alloc()
	*e = ozEntry{kind: opFence, state: stWaitPort, tok: tok, readyAt: cycle}
	c.push(e)
	return tok
}

// Produce implements port.Stream for SYNCOPTI: the instruction is renamed
// to a stream address and parked in the OzQ, dormant until the occupancy
// counters admit it.
func (c *Controller) Produce(cycle uint64, q int, v uint64) (*port.Token, bool) {
	if !c.p.HWQueues {
		panic("memsys: Produce on a design without hardware queues")
	}
	if !c.CanAccept() {
		return nil, false
	}
	slot := c.sentCum[q]
	c.sentCum[q]++
	tok := c.fab.tokens.Get(stats.PreL2)
	e := c.alloc()
	*e = ozEntry{
		kind: opProduce, state: stWaitPort, q: q, slot: slot, val: v, tok: tok,
		addr:    c.p.Layout.SlotAddr(q, c.slotIdx(slot)),
		readyAt: cycle + uint64(c.p.StreamAddrGenLat),
	}
	c.push(e)
	return tok, true
}

// Consume implements port.Stream for SYNCOPTI. A stream-cache hit returns
// the value at stream-address-generation latency; the instruction still
// visits the L2 to keep occupancy counters in sync.
func (c *Controller) Consume(cycle uint64, q int) (*port.Token, bool) {
	if !c.p.HWQueues {
		panic("memsys: Consume on a design without hardware queues")
	}
	if !c.CanAccept() {
		return nil, false
	}
	slot := c.consumeIssueCum[q]
	c.consumeIssueCum[q]++
	tok := c.fab.tokens.Get(stats.L2)
	e := c.alloc()
	*e = ozEntry{
		kind: opConsume, state: stWaitPort, q: q, slot: slot, tok: tok,
		addr:    c.p.Layout.SlotAddr(q, c.slotIdx(slot)),
		readyAt: cycle + uint64(c.p.StreamAddrGenLat),
	}
	if c.sc != nil {
		if v, ok := c.sc.take(q, slot); ok {
			// Stream-cache hit: data available at address-generation
			// latency; the OzQ entry continues for bookkeeping only.
			tok.Complete(cycle+uint64(c.p.StreamAddrGenLat), v)
			e.scHit = true
		}
	}
	c.push(e)
	return tok, true
}

// olderStoreTo reports whether an incomplete store to addr's word precedes
// seq in the OzQ (store-to-load ordering). Only the in-flight store list is
// walked; it holds exactly the OzQ's incomplete stores in seq order.
func (c *Controller) olderStoreTo(addr, seq uint64) bool {
	w := addr &^ 7
	for _, e := range c.stores {
		if e.seq >= seq {
			break
		}
		if e.addr&^7 == w {
			return true
		}
	}
	return false
}

// storeDone removes a committed store from the in-flight store list,
// preserving seq order.
func (c *Controller) storeDone(e *ozEntry) {
	for i, s := range c.stores {
		if s == e {
			c.stores = append(c.stores[:i], c.stores[i+1:]...)
			return
		}
	}
}

// OzQEntryInfo is a diagnostic snapshot of one OzQ entry.
type OzQEntryInfo struct {
	Kind      string
	State     string
	Addr      uint64
	Q         int
	Slot      uint64
	ReadyAt   uint64
	TimeoutAt uint64
}

// QueueCounters is a diagnostic snapshot of one stream queue's cumulative
// counters at this controller.
type QueueCounters struct {
	Q            int
	SentCum      uint64
	DoneCum      uint64
	AckedCum     uint64
	ForwardedCum uint64
	ConsumeCum   uint64
	AvailCum     uint64
	ConsumedCum  uint64
	ProbeOut     bool
}

// Snapshot is a diagnostic snapshot of a controller's in-flight state,
// used for deadlock forensics.
type Snapshot struct {
	ID           int
	OzQ          []OzQEntryInfo
	PendingLines int
	Events       int
	Queues       []QueueCounters // only queues with any traffic
}

// Snapshot captures the controller's current OzQ and stream-queue state.
func (c *Controller) Snapshot() Snapshot {
	s := Snapshot{ID: c.id, PendingLines: len(c.mshrs), Events: c.events.Len()}
	for _, e := range c.ozq {
		s.OzQ = append(s.OzQ, OzQEntryInfo{
			Kind: e.kind.String(), State: e.state.String(),
			Addr: e.addr, Q: e.q, Slot: e.slot,
			ReadyAt: e.readyAt, TimeoutAt: e.timeoutAt,
		})
	}
	for q := range c.sentCum {
		if c.sentCum[q]+c.consumeIssueCum[q] == 0 {
			continue
		}
		s.Queues = append(s.Queues, QueueCounters{
			Q: q, SentCum: c.sentCum[q], DoneCum: c.doneCum[q],
			AckedCum: c.ackedCum[q], ForwardedCum: c.forwardedCum[q],
			ConsumeCum: c.consumeIssueCum[q], AvailCum: c.availCum[q],
			ConsumedCum: c.consumedCum[q], ProbeOut: c.probeOut[q],
		})
	}
	return s
}

// Quiesced reports whether the controller has no in-flight work.
func (c *Controller) Quiesced() bool {
	return len(c.ozq) == 0 && c.events.Len() == 0 && len(c.mshrs) == 0
}

// Tick advances the controller one cycle. Call after the bus has ticked.
func (c *Controller) Tick(cycle uint64) {
	c.scanWake = ^uint64(0)
	c.tick(cycle)
	// compact (the last full pass of the tick) folded the surviving OzQ
	// entries' wake contributions into scanWake, so recomputing the cached
	// wake needs no extra scan.
	w := c.events.Min()
	if c.scanWake < w {
		w = c.scanWake
	}
	if w <= cycle {
		w = cycle + 1
	}
	c.wakeAt = w
}

func (c *Controller) tick(cycle uint64) {
	c.runEvents(cycle)
	c.portCycle = cycle
	c.portUsed = 0

	fenceBlocked := false // an incomplete fence has been seen in the scan
	for _, e := range c.ozq {
		switch e.state {
		case stDone, stWaitFill:
			continue
		case stWaitSync:
			c.tickDormant(cycle, e)
			continue
		}
		if e.kind == opFence {
			if !c.olderIncomplete(e.seq) {
				e.state = stDone
				e.tok.Complete(cycle, 0)
			} else {
				fenceBlocked = true
			}
			continue
		}
		if e.readyAt > cycle {
			continue
		}
		if fenceBlocked {
			// Memory-fence ordering: the entry recirculates through the
			// OzQ, consuming an L2 port on every retry (paper §4.4).
			if c.takePort() {
				c.RecircRetries++
				e.readyAt = cycle + uint64(c.p.RecircInterval)
			}
			continue
		}
		switch e.state {
		case stWaitPort:
			if !c.takePort() {
				c.PortConflicts++
				continue
			}
			e.state = stAccess
			e.readyAt = cycle + uint64(c.p.L2.Latency)
		case stAccess:
			if n := c.fab.faults.RecircStorm(cycle); n > 0 {
				// Injected fault: the resolution loses its port and
				// recirculates n extra times before trying again.
				c.RecircRetries += n
				e.state = stWaitPort
				e.readyAt = cycle + n*uint64(c.p.RecircInterval)
				continue
			}
			c.resolve(cycle, e)
		}
	}
	c.compact(cycle)
}

func (c *Controller) runEvents(cycle uint64) {
	// Most ticks have nothing due; popping by value would still copy an
	// event out to learn that.
	if c.events.Min() > cycle {
		return
	}
	for {
		ev, ok := c.events.PopDue(cycle)
		if !ok {
			return
		}
		c.runEvent(cycle, ev)
	}
}

func (c *Controller) takePort() bool {
	if c.portUsed >= c.p.L2Ports {
		return false
	}
	c.portUsed++
	return true
}

func (c *Controller) olderIncomplete(seq uint64) bool {
	for _, e := range c.ozq {
		if e.seq >= seq {
			return false
		}
		if e.state != stDone {
			return true
		}
	}
	return false
}

// entryWake returns the cycle at which e can make progress on its own:
// its retry/access-completion cycle, or a dormant consume's probe timeout.
// Entries waiting on a bus fill or on queue synchronization are event-
// driven and contribute no wake (fences wake with the entries they order
// behind).
func entryWake(e *ozEntry) uint64 {
	switch e.state {
	case stWaitSync:
		if e.kind == opConsume && e.timeoutAt > 0 {
			return e.timeoutAt
		}
	case stWaitPort, stAccess:
		if e.kind != opFence {
			return e.readyAt
		}
	}
	return ^uint64(0)
}

func (c *Controller) compact(cycle uint64) {
	w := c.scanWake
	// Read-only prescan: most ticks retire nothing, and rewriting the
	// whole queue of pointers costs a write barrier per entry.
	i, n := 0, len(c.ozq)
	for i < n {
		e := c.ozq[i]
		if e.state == stDone {
			break
		}
		if v := entryWake(e); v < w {
			w = v
		}
		i++
	}
	if i == n {
		c.scanWake = w
		c.injectForwards(cycle)
		return
	}
	kept := c.ozq[:i]
	for ; i < n; i++ {
		e := c.ozq[i]
		if e.state != stDone {
			if v := entryWake(e); v < w {
				w = v
			}
			kept = append(kept, e)
		} else {
			if e.kind == opForward {
				// Hardware-generated work items own their doneless token;
				// recycle it with the slot (cores recycle all the others).
				c.fab.tokens.Put(e.tok)
			}
			*e = ozEntry{}
			c.free = append(c.free, e)
		}
	}
	c.ozq = kept
	c.scanWake = w
	c.injectForwards(cycle)
}
