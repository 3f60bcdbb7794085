package queue

import (
	"fmt"
	"sort"

	"hfstream/fault"
	"hfstream/internal/port"
	"hfstream/internal/stats"
)

// SAParams configures the HEAVYWT synchronization array and its dedicated
// interconnect.
type SAParams struct {
	NumQueues int
	Depth     int // dedicated storage entries per queue
	// OpsPerCycle is the number of concurrent operations the dedicated
	// store can service per cycle (paper: 4).
	OpsPerCycle int
	// ConsumeToUse is the consume-to-use latency within the consuming core
	// (paper: 1 cycle).
	ConsumeToUse int
	// InterconnectLatency is the end-to-end latency of the dedicated
	// interconnect in cycles (paper default: 1; 10 in Figure 6).
	InterconnectLatency int
	// Pipelined selects a pipelined interconnect. An M-stage pipelined
	// interconnect with end-to-end latency N accepts a new message every
	// N/M cycles, and its in-flight stages act as extra queue storage
	// (paper §3.3 and the Figure 6 discussion); a non-pipelined one
	// accepts a message only every N cycles.
	Pipelined bool
	// Stages is the pipeline depth of the dedicated interconnect (3,
	// matching the baseline bus).
	Stages int
	// LinkWidth is the number of messages one pipeline slot carries in
	// each direction.
	LinkWidth int
	// MPMC maps logical queue IDs to multi-producer/multi-consumer routes.
	// Each MPMC queue is realized as lcm(P,C) hidden SPSC lanes appended
	// after NumQueues; cores reach them through per-core Port adapters that
	// dispatch on the ticket discipline (see MPMCRoute). Queues without an
	// entry keep the classic single-FIFO behaviour.
	MPMC map[int]MPMCRoute
}

// DefaultSAParams returns the paper's HEAVYWT configuration.
func DefaultSAParams(numQueues, depth int) SAParams {
	return SAParams{
		NumQueues:           numQueues,
		Depth:               depth,
		OpsPerCycle:         4,
		ConsumeToUse:        1,
		InterconnectLatency: 1,
		Pipelined:           true,
		Stages:              3,
		LinkWidth:           2,
	}
}

type saMessage struct {
	deliverAt uint64
	q         int
	value     uint64
	credit    bool // true: ACK back to the producer, false: data to the SA
	fated     bool // fault injection already consulted for this message
}

type saQueue struct {
	// Producer-side view: items sent minus credits received. Conservative
	// (an item in flight counts as occupying the queue).
	outstanding int
	// Consumer-side FIFO resident in the dedicated store. head indexes the
	// front so pops reuse the backing array instead of sliding the slice
	// (fifo = fifo[1:] reallocates on nearly every push).
	fifo []uint64
	head int
	// epoch counts the data and credit deliveries to this queue: its
	// occupancy only rises, and its producer's outstanding count only
	// falls, through one of them, so a full or empty refusal repeats for
	// as long as epoch holds still.
	epoch uint64
}

// occ returns the queue's resident occupancy.
func (q *saQueue) occ() int { return len(q.fifo) - q.head }

// push appends to the FIFO, compacting consumed headroom first so the
// backing array is reused.
func (q *saQueue) push(v uint64) {
	if q.head > 0 && len(q.fifo) == cap(q.fifo) {
		n := copy(q.fifo, q.fifo[q.head:])
		q.fifo = q.fifo[:n]
		q.head = 0
	}
	q.fifo = append(q.fifo, v)
}

// pop removes and returns the front item (the caller checks occupancy).
func (q *saQueue) pop() uint64 {
	v := q.fifo[q.head]
	q.head++
	if q.head == len(q.fifo) {
		q.fifo = q.fifo[:0]
		q.head = 0
	}
	return v
}

// interconnect directions: data (producer to SA) and credits (back).
const (
	dirData = iota
	dirCredit
	numDirs
)

// SyncArray models HEAVYWT's distributed dedicated backing store: a FIFO
// array located at the consumer core, with replicated occupancy tracking at
// the producer (credit-based) and a dedicated interconnect carrying data
// one way and credits the other. It implements port.Stream for both cores.
type SyncArray struct {
	p        SAParams
	queues   []saQueue
	inflight []saMessage

	// depths holds each physical queue's dedicated-store depth: p.Depth
	// for the first NumQueues entries, Depth/lcm(P,C) (min 1) for MPMC
	// lane sub-queues appended after them.
	depths []int
	// laneBase maps a logical MPMC queue ID to the physical ID of its
	// first lane.
	laneBase map[int]int

	// linkFree tracks, per direction, the next quarter-cycle at which the
	// interconnect accepts a message (token bucket at the pipeline
	// initiation rate; paper §3.3).
	linkFree [numDirs]uint64
	// pendingCredits holds credits the link could not accept yet; they
	// drain in Tick so consumes never block on credit-path contention.
	// pcHead indexes the front (same capacity-reuse scheme as saQueue).
	pendingCredits []int
	pcHead         int
	// pendingData is the small network-interface egress buffer on the
	// data path: short produce bursts absorb here; once it fills, produce
	// operations back up in the processor pipeline (paper §3.2). pdHead
	// indexes the front.
	pendingData []saMessage
	pdHead      int

	// consumeBudget tracks dedicated-store port usage in the current cycle.
	budgetCycle uint64
	budgetUsed  int

	// wakeAt caches the earliest cycle at which Tick can do anything
	// (^uint64(0) when dormant). Produce/Consume lower it when they queue
	// work; Tick recomputes it. The sim kernel skips dormant arrays.
	wakeAt uint64

	// Tokens, when non-nil, recycles completion tokens from a run-scoped
	// arena instead of allocating each one.
	Tokens *port.TokenPool

	// LinkBackpressure counts produce attempts rejected by the
	// interconnect initiation rate.
	LinkBackpressure uint64

	// Faults, when non-nil, injects deterministic faults into the
	// interconnect delivery paths: credits may be delayed or dropped,
	// data messages may be dropped (see package fault).
	Faults *fault.Injector

	// The last refused Produce or Consume, as Refusal reports it.
	refEpoch, refCount *uint64

	// Stats.
	Produces     uint64
	Consumes     uint64
	FullStalls   uint64 // produce attempts rejected (queue full)
	EmptyStalls  uint64 // consume attempts rejected (no data)
	MaxOccupancy int
	// OccHist is a histogram of dedicated-store occupancy, recorded after
	// every delivery and every consume.
	OccHist stats.Hist
}

// NewSyncArray builds a synchronization array.
func NewSyncArray(p SAParams) (*SyncArray, error) {
	if p.NumQueues <= 0 || p.Depth <= 0 {
		return nil, fmt.Errorf("queue: bad SA params %+v", p)
	}
	if p.OpsPerCycle <= 0 {
		p.OpsPerCycle = 4
	}
	if p.ConsumeToUse <= 0 {
		p.ConsumeToUse = 1
	}
	if p.InterconnectLatency <= 0 {
		p.InterconnectLatency = 1
	}
	total := p.NumQueues
	depths := make([]int, p.NumQueues, p.NumQueues)
	for i := range depths {
		depths[i] = p.Depth
	}
	laneBase := make(map[int]int, len(p.MPMC))
	mpmcQs := make([]int, 0, len(p.MPMC))
	for q := range p.MPMC {
		mpmcQs = append(mpmcQs, q)
	}
	sort.Ints(mpmcQs)
	for _, q := range mpmcQs {
		r := p.MPMC[q]
		if q < 0 || q >= p.NumQueues {
			return nil, fmt.Errorf("queue: MPMC route for q%d out of range [0,%d)", q, p.NumQueues)
		}
		if err := r.Validate(q, p.Depth); err != nil {
			return nil, err
		}
		if !r.IsMPMC() {
			continue // 1:1 route: the plain FIFO already has the semantics
		}
		lanes := r.LaneCount()
		laneCap := p.Depth / lanes
		if laneCap < 1 {
			laneCap = 1
		}
		laneBase[q] = total
		for l := 0; l < lanes; l++ {
			depths = append(depths, laneCap)
		}
		total += lanes
	}
	return &SyncArray{p: p, queues: make([]saQueue, total), depths: depths, laneBase: laneBase, wakeAt: ^uint64(0)}, nil
}

// capacityOf returns physical queue q's effective producer-visible
// capacity: its dedicated store depth plus, for a pipelined interconnect,
// the in-flight stages (which buffer data and effectively extend the
// queue).
func (sa *SyncArray) capacityOf(q int) int {
	if sa.p.Pipelined {
		return sa.depths[q] + sa.p.InterconnectLatency
	}
	return sa.depths[q]
}

// noteWake lowers the cached wake time; every mutation that queues future
// work for Tick must call it.
func (sa *SyncArray) noteWake(at uint64) {
	if at < sa.wakeAt {
		sa.wakeAt = at
	}
}

// WakeAt returns the earliest cycle at which Tick can do anything
// (^uint64(0) when the array is dormant).
func (sa *SyncArray) WakeAt() uint64 { return sa.wakeAt }

// Tick delivers interconnect messages due at the given cycle and drains
// queued credits as link bandwidth allows. It must be called once per
// cycle before the cores tick (the kernel may skip cycles where WakeAt
// says nothing can happen).
func (sa *SyncArray) Tick(cycle uint64) {
	sa.tick(cycle)
	sa.wakeAt = sa.NextWake(cycle)
}

func (sa *SyncArray) tick(cycle uint64) {
	for sa.pcHead < len(sa.pendingCredits) && sa.tryInject(cycle, dirCredit) {
		q := sa.pendingCredits[sa.pcHead]
		sa.pcHead++
		sa.inflight = append(sa.inflight, saMessage{
			deliverAt: cycle + uint64(sa.p.InterconnectLatency),
			q:         q,
			credit:    true,
		})
	}
	if sa.pcHead == len(sa.pendingCredits) {
		sa.pendingCredits = sa.pendingCredits[:0]
		sa.pcHead = 0
	}
	for sa.pdHead < len(sa.pendingData) && sa.tryInject(cycle, dirData) {
		m := sa.pendingData[sa.pdHead]
		sa.pdHead++
		m.deliverAt = cycle + uint64(sa.p.InterconnectLatency)
		sa.inflight = append(sa.inflight, m)
	}
	if sa.pdHead == len(sa.pendingData) {
		sa.pendingData = sa.pendingData[:0]
		sa.pdHead = 0
	}
	kept := sa.inflight[:0]
	for _, m := range sa.inflight {
		if m.deliverAt > cycle {
			kept = append(kept, m)
			continue
		}
		if m.credit && !m.fated {
			drop, delay := sa.Faults.CreditFate(cycle, m.q)
			if drop {
				// Injected loss: the producer's occupancy view stays
				// elevated forever.
				continue
			}
			if delay > 0 {
				// Credits are order-irrelevant counters, so delaying one
				// is safe; mark it fated so it is not consulted again.
				m.fated = true
				m.deliverAt = cycle + delay
				kept = append(kept, m)
				continue
			}
		}
		if !m.credit && sa.Faults.DataDropped(cycle, m.q) {
			// Injected loss: the item vanishes in flight. The producer's
			// credit is never returned (data messages carry the value, so
			// delaying them would reorder the FIFO — drops only).
			continue
		}
		q := &sa.queues[m.q]
		q.epoch++
		if m.credit {
			q.outstanding--
			if q.outstanding < 0 {
				panic(fmt.Sprintf("queue: SA credit underflow on q%d", m.q))
			}
		} else {
			q.push(m.value)
			if q.occ() > sa.MaxOccupancy {
				sa.MaxOccupancy = q.occ()
			}
			sa.OccHist.Observe(uint64(q.occ()))
		}
	}
	sa.inflight = kept
}

// NextWake returns the earliest future cycle at which the array can
// change state on its own: the next in-flight message delivery, or the
// very next cycle when queued credits/data are waiting to drain onto the
// link. Returns ^uint64(0) when the array is idle.
func (sa *SyncArray) NextWake(cycle uint64) uint64 {
	if sa.pcHead < len(sa.pendingCredits) || sa.pdHead < len(sa.pendingData) {
		return cycle + 1
	}
	w := ^uint64(0)
	for _, m := range sa.inflight {
		if m.deliverAt < w {
			w = m.deliverAt
		}
	}
	if w <= cycle {
		return cycle + 1
	}
	return w
}

// msgCostQ4 is the interconnect initiation interval per message in
// quarter-cycles: latency/stages for a pipelined network (one slot every
// initiation interval, LinkWidth messages per slot), the full latency for
// a non-pipelined one.
func (sa *SyncArray) msgCostQ4() uint64 {
	w := sa.p.LinkWidth
	if w <= 0 {
		w = 1
	}
	if !sa.p.Pipelined {
		// A non-pipelined link carries one message per full traversal.
		return uint64(4 * sa.p.InterconnectLatency)
	}
	stages := sa.p.Stages
	if stages <= 0 {
		stages = 3
	}
	interval := (sa.p.InterconnectLatency + stages - 1) / stages
	if interval < 1 {
		interval = 1
	}
	cost := uint64(4 * interval / w)
	if cost < 1 {
		cost = 1
	}
	return cost
}

// tryInject consumes link bandwidth in the given direction if available.
func (sa *SyncArray) tryInject(cycle uint64, dir int) bool {
	q4 := cycle * 4
	if sa.linkFree[dir] > q4+3 {
		return false
	}
	next := sa.linkFree[dir]
	if next < q4 {
		next = q4
	}
	sa.linkFree[dir] = next + sa.msgCostQ4()
	return true
}

func (sa *SyncArray) takeBudget(cycle uint64) bool {
	if sa.budgetCycle != cycle {
		sa.budgetCycle = cycle
		sa.budgetUsed = 0
	}
	if sa.budgetUsed >= sa.p.OpsPerCycle {
		return false
	}
	sa.budgetUsed++
	return true
}

// Produce implements port.Stream. A produce on a full queue blocks the
// pipeline: ok=false tells the core to stall issue and retry.
func (sa *SyncArray) Produce(cycle uint64, q int, v uint64) (*port.Token, bool) {
	qu := &sa.queues[q]
	if qu.outstanding >= sa.capacityOf(q) {
		sa.FullStalls++
		sa.refEpoch, sa.refCount = &qu.epoch, &sa.FullStalls
		return nil, false
	}
	if !sa.takeBudget(cycle) {
		sa.refEpoch, sa.refCount = nil, nil
		return nil, false
	}
	msg := saMessage{q: q, value: v}
	switch {
	case sa.pdHead == len(sa.pendingData) && sa.tryInject(cycle, dirData):
		msg.deliverAt = cycle + uint64(sa.p.InterconnectLatency)
		sa.inflight = append(sa.inflight, msg)
		sa.noteWake(msg.deliverAt)
	case len(sa.pendingData)-sa.pdHead < egressEntries:
		if sa.pdHead > 0 && len(sa.pendingData) == cap(sa.pendingData) {
			n := copy(sa.pendingData, sa.pendingData[sa.pdHead:])
			sa.pendingData = sa.pendingData[:n]
			sa.pdHead = 0
		}
		sa.pendingData = append(sa.pendingData, msg)
		sa.noteWake(cycle + 1)
	default:
		// Not sticky: the attempt took a unit of this cycle's port
		// budget, which a skipped retry would leave to a later core.
		sa.LinkBackpressure++
		sa.refEpoch, sa.refCount = nil, &sa.LinkBackpressure
		return nil, false
	}
	qu.outstanding++
	sa.Produces++
	tok := sa.Tokens.Get(stats.PreL2)
	tok.Complete(cycle+1, v)
	return tok, true
}

// egressEntries sizes the network-interface egress buffer.
const egressEntries = 4

// Consume implements port.Stream. ok=false when no data has arrived at the
// dedicated store yet.
func (sa *SyncArray) Consume(cycle uint64, q int) (*port.Token, bool) {
	qu := &sa.queues[q]
	if qu.occ() == 0 {
		sa.EmptyStalls++
		sa.refEpoch, sa.refCount = &qu.epoch, &sa.EmptyStalls
		return nil, false
	}
	if !sa.takeBudget(cycle) {
		sa.refEpoch, sa.refCount = nil, nil
		return nil, false
	}
	v := qu.pop()
	sa.Consumes++
	sa.OccHist.Observe(uint64(qu.occ()))
	// Return the credit to the producer over the interconnect; if the
	// credit path is saturated the credit queues without blocking the
	// consume itself.
	if sa.tryInject(cycle, dirCredit) {
		sa.inflight = append(sa.inflight, saMessage{
			deliverAt: cycle + uint64(sa.p.InterconnectLatency),
			q:         q,
			credit:    true,
		})
		sa.noteWake(cycle + uint64(sa.p.InterconnectLatency))
	} else {
		if sa.pcHead > 0 && len(sa.pendingCredits) == cap(sa.pendingCredits) {
			n := copy(sa.pendingCredits, sa.pendingCredits[sa.pcHead:])
			sa.pendingCredits = sa.pendingCredits[:n]
			sa.pcHead = 0
		}
		sa.pendingCredits = append(sa.pendingCredits, q)
		sa.noteWake(cycle + 1)
	}
	tok := sa.Tokens.Get(stats.PreL2)
	tok.Complete(cycle+uint64(sa.p.ConsumeToUse), v)
	return tok, true
}

// Refusal implements port.Refuser for the last refused Produce or Consume.
// A full or an empty queue refuses again until its epoch moves: the full
// and empty checks come before the port budget is taken, so the refused
// attempt changes nothing but its counter. A refusal by the per-cycle port
// budget or by a full egress buffer is never sticky.
func (sa *SyncArray) Refusal() (epoch, count *uint64, sticky bool) {
	return sa.refEpoch, sa.refCount, sa.refEpoch != nil
}

// Occupancy returns the number of items resident in queue q's dedicated
// store (excludes in-flight items).
func (sa *SyncArray) Occupancy(q int) int { return sa.queues[q].occ() }

// Outstanding returns the producer-side occupancy view for queue q.
func (sa *SyncArray) Outstanding(q int) int { return sa.queues[q].outstanding }

// SAQueueInfo is a diagnostic snapshot of one queue's state.
type SAQueueInfo struct {
	Q           int
	Occupancy   int // items resident in the dedicated store
	Outstanding int // producer-side occupancy view (includes in-flight)
}

// SASnapshot is a diagnostic snapshot of the synchronization array, used
// for deadlock forensics.
type SASnapshot struct {
	InFlight       int
	PendingCredits int
	PendingData    int
	Queues         []SAQueueInfo // only queues with visible state
}

// Snapshot captures the array's current occupancy and in-flight state.
func (sa *SyncArray) Snapshot() SASnapshot {
	s := SASnapshot{
		InFlight:       len(sa.inflight),
		PendingCredits: len(sa.pendingCredits) - sa.pcHead,
		PendingData:    len(sa.pendingData) - sa.pdHead,
	}
	for i := range sa.queues {
		if sa.queues[i].occ() == 0 && sa.queues[i].outstanding == 0 {
			continue
		}
		s.Queues = append(s.Queues, SAQueueInfo{
			Q: i, Occupancy: sa.queues[i].occ(), Outstanding: sa.queues[i].outstanding,
		})
	}
	return s
}

// Drained reports whether all queues are empty with nothing in flight.
func (sa *SyncArray) Drained() bool {
	if len(sa.inflight) > 0 || sa.pcHead < len(sa.pendingCredits) || sa.pdHead < len(sa.pendingData) {
		return false
	}
	for i := range sa.queues {
		if sa.queues[i].occ() > 0 || sa.queues[i].outstanding > 0 {
			return false
		}
	}
	return true
}
