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
	// ConsumeToUse is the consume-to-use latency within the consuming core
	// (paper: 1 cycle).
	ConsumeToUse int
	// InterconnectLatency is the end-to-end latency of the dedicated
	// interconnect in cycles (paper default: 1; 10 in Figure 6).
	InterconnectLatency int
	// MPMC maps logical queue IDs to multi-producer/multi-consumer routes.
	// Each MPMC queue is realized as lcm(P,C) hidden SPSC lanes appended
	// after NumQueues; cores reach them through per-core Port adapters that
	// dispatch on the ticket discipline (see MPMCRoute). Queues without an
	// entry keep the classic single-FIFO behaviour.
	MPMC map[int]MPMCRoute
}

// The dedicated store and its interconnect (paper Table 2, §3.3). The
// interconnect is pipelined: with linkStages stages and end-to-end latency
// N it accepts a new slot every ceil(N/linkStages) cycles, each slot
// carrying linkWidth messages per direction, and its in-flight stages act
// as extra queue storage (the Figure 6 discussion).
const (
	saOpsPerCycle = 4 // concurrent operations the store services per cycle
	linkStages    = 3 // matching the baseline bus
	linkWidth     = 2
)

// DefaultSAParams returns the paper's HEAVYWT configuration.
func DefaultSAParams(numQueues, depth int) SAParams {
	return SAParams{
		NumQueues:           numQueues,
		Depth:               depth,
		ConsumeToUse:        1,
		InterconnectLatency: 1,
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
	// items is the consumer-side FIFO resident in the dedicated store.
	items fifo[uint64]
	// epoch counts the data and credit deliveries to this queue: its
	// occupancy only rises, and its producer's outstanding count only
	// falls, through one of them, so a full or empty refusal repeats for
	// as long as epoch holds still.
	epoch uint64
}

// fifo is a head-indexed queue: pop advances head instead of re-slicing
// (q = q[1:] would creep forward and reallocate on nearly every push),
// push compacts the consumed headroom only when the backing array is
// full, and a pop that empties it resets both ends, so a steady queue
// reuses one array for the whole run.
type fifo[T any] struct {
	buf  []T
	head int
	// limit bounds the items the FIFO ever holds (0: unbounded). Many
	// queues never hold a second item; one that does is likely to fill,
	// so its second array is allocated at limit.
	limit int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) {
	if len(f.buf) == cap(f.buf) {
		f.makeRoom()
	}
	f.buf = append(f.buf, v)
}

// makeRoom frees a slot in a full array: it compacts the consumed
// headroom, or, with none, grows a one-item array straight to limit.
func (f *fifo[T]) makeRoom() {
	if f.head > 0 {
		f.buf = f.buf[:copy(f.buf, f.buf[f.head:])]
		f.head = 0
	} else if n := len(f.buf); n > 0 && n < f.limit {
		f.buf = append(make([]T, 0, f.limit), f.buf...)
	}
}

// pop removes and returns the front item (the caller checks len).
func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	f.head++
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
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

	// laneBase maps a logical MPMC queue ID to the physical ID of its
	// first lane.
	laneBase map[int]int

	// linkFree tracks, per direction, the next quarter-cycle at which the
	// interconnect accepts a message (token bucket at the pipeline
	// initiation rate; paper §3.3).
	linkFree [numDirs]uint64
	// msgQ4 is the link's initiation interval per message in
	// quarter-cycles.
	msgQ4 uint64
	// pendingCredits holds credits (queue numbers) the link could not
	// accept yet; they drain in Tick so consumes never block on
	// credit-path contention.
	pendingCredits fifo[int]
	// pendingData is the small network-interface egress buffer on the
	// data path: short produce bursts absorb here; once it fills, produce
	// operations back up in the processor pipeline (paper §3.2).
	pendingData fifo[saMessage]

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
	FullStalls  uint64 // produce attempts rejected (queue full)
	EmptyStalls uint64 // consume attempts rejected (no data)
	// OccHist is a histogram of dedicated-store occupancy, recorded after
	// every delivery and every consume.
	OccHist stats.Hist
}

// NewSyncArray builds a synchronization array.
func NewSyncArray(p SAParams) (*SyncArray, error) {
	if p.NumQueues <= 0 || p.Depth <= 0 {
		return nil, fmt.Errorf("queue: bad SA params %+v", p)
	}
	if p.InterconnectLatency < 1 {
		return nil, fmt.Errorf("queue: interconnect latency %d, want at least 1 cycle", p.InterconnectLatency)
	}
	if p.ConsumeToUse < 1 {
		return nil, fmt.Errorf("queue: consume-to-use latency %d, want at least 1 cycle", p.ConsumeToUse)
	}
	total := p.NumQueues
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
		laneBase[q] = total
		total += r.LaneCount()
	}
	// A queue's capacity is its dedicated-store depth plus the
	// interconnect's in-flight stages (which buffer data and effectively
	// extend the queue): p.Depth for the first NumQueues queues,
	// Depth/lcm(P,C) (min 1) for the MPMC lane sub-queues after them. It
	// bounds the items the queue's FIFO ever holds.
	queues := make([]saQueue, total)
	for q := range queues {
		queues[q].items.limit = p.Depth + p.InterconnectLatency
	}
	for q, base := range laneBase {
		lanes := p.MPMC[q].LaneCount()
		for l := range lanes {
			queues[base+l].items.limit = max(p.Depth/lanes, 1) + p.InterconnectLatency
		}
	}
	interval := (p.InterconnectLatency + linkStages - 1) / linkStages
	sa := &SyncArray{p: p, queues: queues, laneBase: laneBase,
		msgQ4: uint64(4 * interval / linkWidth), wakeAt: ^uint64(0)}
	sa.pendingData.limit = egressEntries
	return sa, nil
}

// capacityOf returns physical queue q's effective producer-visible
// capacity (see NewSyncArray).
func (sa *SyncArray) capacityOf(q int) int { return sa.queues[q].items.limit }

// noteWake lowers the cached wake time; every mutation that queues future
// work for Tick must call it.
func (sa *SyncArray) noteWake(at uint64) {
	if at < sa.wakeAt {
		sa.wakeAt = at
	}
}

// WakeAt returns the earliest cycle at which Tick can do anything
// (^uint64(0) when the array is dormant). Tick recomputes it and Produce
// and Consume lower it, so the kernel's gate and its jump both read it.
func (sa *SyncArray) WakeAt() uint64 { return sa.wakeAt }

// Tick delivers interconnect messages due at the given cycle and drains
// queued credits as link bandwidth allows. It must be called once per
// cycle before the cores tick (the kernel may skip cycles where WakeAt
// says nothing can happen).
func (sa *SyncArray) Tick(cycle uint64) {
	sa.tick(cycle)
	sa.wakeAt = sa.nextWake(cycle)
}

func (sa *SyncArray) tick(cycle uint64) {
	for sa.pendingCredits.len() > 0 && sa.tryInject(cycle, dirCredit) {
		sa.inflight = append(sa.inflight, saMessage{
			deliverAt: cycle + uint64(sa.p.InterconnectLatency),
			q:         sa.pendingCredits.pop(),
			credit:    true,
		})
	}
	for sa.pendingData.len() > 0 && sa.tryInject(cycle, dirData) {
		m := sa.pendingData.pop()
		m.deliverAt = cycle + uint64(sa.p.InterconnectLatency)
		sa.inflight = append(sa.inflight, m)
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
			q.items.push(m.value)
			sa.OccHist.Observe(uint64(q.items.len()))
		}
	}
	sa.inflight = kept
}

// nextWake returns the earliest cycle after cycle at which the array can
// change state on its own: the next in-flight message delivery, or the
// very next cycle when queued credits/data are waiting to drain onto the
// link. Returns ^uint64(0) when the array is idle.
func (sa *SyncArray) nextWake(cycle uint64) uint64 {
	if sa.pendingCredits.len() > 0 || sa.pendingData.len() > 0 {
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
	sa.linkFree[dir] = next + sa.msgQ4
	return true
}

func (sa *SyncArray) takeBudget(cycle uint64) bool {
	if sa.budgetCycle != cycle {
		sa.budgetCycle = cycle
		sa.budgetUsed = 0
	}
	if sa.budgetUsed >= saOpsPerCycle {
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
	case sa.pendingData.len() == 0 && sa.tryInject(cycle, dirData):
		msg.deliverAt = cycle + uint64(sa.p.InterconnectLatency)
		sa.inflight = append(sa.inflight, msg)
		sa.noteWake(msg.deliverAt)
	case sa.pendingData.len() < egressEntries:
		sa.pendingData.push(msg)
		sa.noteWake(cycle + 1)
	default:
		// Not sticky: the attempt took a unit of this cycle's port
		// budget, which a skipped retry would leave to a later core.
		sa.LinkBackpressure++
		sa.refEpoch, sa.refCount = nil, &sa.LinkBackpressure
		return nil, false
	}
	qu.outstanding++
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
	if qu.items.len() == 0 {
		sa.EmptyStalls++
		sa.refEpoch, sa.refCount = &qu.epoch, &sa.EmptyStalls
		return nil, false
	}
	if !sa.takeBudget(cycle) {
		sa.refEpoch, sa.refCount = nil, nil
		return nil, false
	}
	v := qu.items.pop()
	sa.OccHist.Observe(uint64(qu.items.len()))
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
		sa.pendingCredits.push(q)
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
func (sa *SyncArray) Occupancy(q int) int { return sa.queues[q].items.len() }

// Outstanding returns the producer-side occupancy view for queue q.
func (sa *SyncArray) Outstanding(q int) int { return sa.queues[q].outstanding }

// SAQueueInfo is a diagnostic snapshot of one queue's state.
type SAQueueInfo struct {
	Q           int `json:"q"`
	Occupancy   int `json:"occupancy"`   // items resident in the dedicated store
	Outstanding int `json:"outstanding"` // producer-side occupancy view (includes in-flight)
}

// SASnapshot is a diagnostic snapshot of the synchronization array, used
// for deadlock forensics.
type SASnapshot struct {
	InFlight       int           `json:"in_flight"`
	PendingCredits int           `json:"pending_credits"`
	PendingData    int           `json:"pending_data"`
	Queues         []SAQueueInfo `json:"queues,omitempty"` // only queues with visible state
}

// Snapshot captures the array's current occupancy and in-flight state.
func (sa *SyncArray) Snapshot() SASnapshot {
	s := SASnapshot{
		InFlight:       len(sa.inflight),
		PendingCredits: sa.pendingCredits.len(),
		PendingData:    sa.pendingData.len(),
	}
	for i := range sa.queues {
		q := &sa.queues[i]
		if q.items.len() == 0 && q.outstanding == 0 {
			continue
		}
		s.Queues = append(s.Queues, SAQueueInfo{
			Q: i, Occupancy: q.items.len(), Outstanding: q.outstanding,
		})
	}
	return s
}

// Drained reports whether all queues are empty with nothing in flight.
func (sa *SyncArray) Drained() bool {
	if len(sa.inflight) > 0 || sa.pendingCredits.len() > 0 || sa.pendingData.len() > 0 {
		return false
	}
	for i := range sa.queues {
		if sa.queues[i].items.len() > 0 || sa.queues[i].outstanding > 0 {
			return false
		}
	}
	return true
}
