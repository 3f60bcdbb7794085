// Package bus models the shared split-transaction L3 bus: round-robin
// arbitration, a configurable width and CPU-cycle-to-bus-cycle ratio, and
// optional pipelining (paper Table 2: 16-byte, 1-cycle, 3-stage pipelined
// split-transaction bus with round-robin arbitration; Figures 10 and 11
// vary the cycle ratio and width).
//
// The bus is a pure timing device: semantics (snooping, data supply) are
// provided by a Handler the owner installs. On grant, the handler performs
// the snoop atomically and returns how long servicing takes and how many
// data beats the reply occupies; the bus then schedules completion on the
// data path, modeling contention.
package bus

import (
	"fmt"

	"hfstream/fault"
)

// Kind classifies bus transactions.
type Kind int

// Transaction kinds.
const (
	// Read requests a line for reading (install shared).
	Read Kind = iota
	// ReadX requests a line for writing (install modified, invalidate
	// other copies).
	ReadX
	// Upgrade promotes a shared copy to modified (no data transfer).
	Upgrade
	// Writeback pushes a dirty line back to the L3.
	Writeback
	// WriteForward pushes a streaming line from the producer's L2 into the
	// consumer's L2 (MEMOPTI / SYNCOPTI).
	WriteForward
	// OccUpdate carries a SYNCOPTI occupancy-counter update.
	OccUpdate
	// BulkAck is the consumer's per-line consumption notification that
	// updates the producer's occupancy tracker (SYNCOPTI).
	BulkAck
	// Probe is the timeout-initiated request eliciting a writeback of a
	// partially-filled streaming line (SYNCOPTI stream termination).
	Probe
	numKinds
)

// String names the transaction kind.
func (k Kind) String() string {
	switch k {
	case Read:
		return "Read"
	case ReadX:
		return "ReadX"
	case Upgrade:
		return "Upgrade"
	case Writeback:
		return "Writeback"
	case WriteForward:
		return "WriteForward"
	case OccUpdate:
		return "OccUpdate"
	case BulkAck:
		return "BulkAck"
	case Probe:
		return "Probe"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Supplier identifies which machine region services a granted request;
// requesters use it to attribute subsequent waiting time.
const (
	SupplierNone = iota
	SupplierRemoteL2
	SupplierL3
	SupplierMem
)

// Owner receives a request's grant callbacks without per-request
// closures: the bus (and the fabric's snoop broker) dispatch back to the
// submitting component, which recovers its context from the request's
// fields. Implementations may recycle the request once ReqDone returns —
// the bus holds no reference past that call.
type Owner interface {
	// ReqNote is invoked at grant time with the Supplier constant
	// describing who services the request.
	ReqNote(r *Req, supplier int)
	// ReqDone is invoked during grant processing with the future CPU
	// cycle at which the transaction completes (data delivered /
	// invalidation globally visible). The receiver must not act on the
	// result before that cycle.
	ReqDone(r *Req, done uint64)
}

// Req is one bus transaction request.
type Req struct {
	Kind Kind
	Addr uint64
	Src  int    // requester id (core/L2 index)
	Aux  int    // kind-specific payload (e.g. item count for forwards)
	Q    int    // stream queue number for streaming transactions
	Slot uint64 // cumulative starting slot for streaming transactions

	// Owner, if non-nil, receives the grant callbacks (preferred: no
	// per-request closures). Ref is an opaque cookie the owner may use to
	// carry extra context (e.g. the OzQ entry behind a forward).
	Owner Owner
	Ref   any

	// Note, if non-nil and Owner is nil, is invoked at grant time with
	// the Supplier constant describing who services the request.
	Note func(supplier int)

	// Done, if non-nil and Owner is nil, is invoked during grant
	// processing with the future completion cycle (see Owner.ReqDone).
	Done func(cycle uint64)

	granted  bool
	submitAt uint64
}

// Handler performs the semantic part of a granted transaction: snooping
// other caches, looking up the L3, updating directory/occupancy state. It
// returns the supplier latency in CPU cycles (e.g. remote L2 access, L3 or
// memory latency) and the number of data-bus beats the reply occupies
// (0 for address-only transactions).
type Handler func(r *Req, grantCycle uint64) (serviceLat, beats int)

// Params configures the bus.
type Params struct {
	WidthBytes int  // bytes transferred per data beat (Table 2: 16)
	CPB        int  // CPU cycles per bus cycle (Table 2: 1; Figure 10: 4)
	Pipelined  bool // 3-stage pipelined split-transaction bus when true
	ArbLat     int  // arbitration latency in bus cycles (1)
	SnoopLat   int  // address/snoop phase latency in bus cycles (2)
}

// DefaultParams returns the Table 2 baseline bus.
func DefaultParams() Params {
	return Params{WidthBytes: 16, CPB: 1, Pipelined: true, ArbLat: 1, SnoopLat: 2}
}

// Validate reports whether the parameters describe a constructible bus.
// Callers that accept user-supplied configuration should check this before
// New, which treats bad parameters as an internal invariant violation.
func (p Params) Validate() error {
	if p.WidthBytes <= 0 {
		return fmt.Errorf("bus: width must be positive, got %d bytes", p.WidthBytes)
	}
	if p.CPB <= 0 {
		return fmt.Errorf("bus: cycles-per-bus-cycle must be positive, got %d", p.CPB)
	}
	return nil
}

// srcQueue is one source's FIFO of ungranted requests. Popping advances
// head instead of re-slicing, so the backing array is reused across the
// whole run instead of creeping forward and reallocating.
type srcQueue struct {
	reqs []*Req
	head int
}

func (q *srcQueue) len() int { return len(q.reqs) - q.head }

func (q *srcQueue) push(r *Req) { q.reqs = append(q.reqs, r) }

func (q *srcQueue) pop() *Req {
	r := q.reqs[q.head]
	q.reqs[q.head] = nil
	q.head++
	if q.head == len(q.reqs) {
		q.reqs = q.reqs[:0]
		q.head = 0
	}
	return r
}

// Bus is the shared split-transaction bus.
type Bus struct {
	p       Params
	handler Handler

	queues   []srcQueue // per-source request queues
	rrNext   int        // round-robin pointer
	addrFree uint64     // next CPU cycle the address path is free
	dataFree uint64     // next CPU cycle the data path is free

	// wakeAt caches the earliest cycle Tick can do anything (see WakeAt);
	// Submit lowers it, Tick recomputes it.
	wakeAt uint64

	// Stats.
	Grants       [numKinds]uint64
	BeatsCarried uint64
	// ArbWait accumulates CPU cycles requests spent waiting for a grant.
	ArbWait uint64

	// Trace, when non-nil, observes every address-phase grant (the
	// simulator wires it to the structured event trace).
	Trace func(cycle uint64, k Kind, src int, addr uint64)

	// Faults, when non-nil, injects deterministic faults: each grant may
	// have its service latency stretched (fault.BusDelay). Nil means no
	// fault injection.
	Faults *fault.Injector
}

// New creates a bus with n requesters.
func New(p Params, n int, h Handler) *Bus {
	if p.WidthBytes <= 0 || p.CPB <= 0 {
		panic(fmt.Sprintf("bus: bad params %+v", p))
	}
	if p.ArbLat <= 0 {
		p.ArbLat = 1
	}
	if p.SnoopLat <= 0 {
		p.SnoopLat = 1
	}
	return &Bus{
		p:       p,
		handler: h,
		queues:  make([]srcQueue, n),
		wakeAt:  ^uint64(0),
	}
}

// Params returns the bus configuration.
func (b *Bus) Params() Params { return b.p }

// BeatsForBytes returns the number of data beats needed for n bytes.
func (b *Bus) BeatsForBytes(n int) int {
	return (n + b.p.WidthBytes - 1) / b.p.WidthBytes
}

// Submit enqueues a request for arbitration.
func (b *Bus) Submit(cycle uint64, r *Req) {
	if r.Src < 0 || r.Src >= len(b.queues) {
		panic(fmt.Sprintf("bus: bad source %d", r.Src))
	}
	b.queues[r.Src].push(r)
	r.submitAt = cycle
	// The earliest possible grant is the next tick (components submit
	// after the bus has ticked this cycle); Tick tightens the wake to the
	// real address-path availability.
	if cycle+1 < b.wakeAt {
		b.wakeAt = cycle + 1
	}
}

// Idle reports whether the bus has no queued requests and both paths free.
func (b *Bus) Idle(cycle uint64) bool {
	for i := range b.queues {
		if b.queues[i].len() > 0 {
			return false
		}
	}
	return b.addrFree <= cycle && b.dataFree <= cycle
}

// WakeAt returns the cached earliest cycle at which ticking the bus can
// have any effect (grant a request or drain a path and flip Idle). The
// wake-gated kernel skips Tick calls before it; ticking earlier is
// harmless, just wasted work.
func (b *Bus) WakeAt() uint64 { return b.wakeAt }

// NextWake returns the earliest future cycle at which the bus can change
// state on its own: the next grant opportunity when requests are queued,
// or the cycle its address/data paths drain (which can flip Idle and so
// let the machine quiesce). Returns ^uint64(0) when nothing is pending.
func (b *Bus) NextWake(cycle uint64) uint64 {
	for i := range b.queues {
		if b.queues[i].len() > 0 {
			if b.addrFree > cycle {
				return b.addrFree
			}
			return cycle + 1
		}
	}
	w := ^uint64(0)
	if b.addrFree > cycle {
		w = b.addrFree
	}
	if b.dataFree > cycle && b.dataFree < w {
		w = b.dataFree
	}
	return w
}

// Tick advances the bus one CPU cycle, granting at most one address phase
// when the address path is free.
func (b *Bus) Tick(cycle uint64) {
	b.tick(cycle)
	b.wakeAt = b.NextWake(cycle)
}

func (b *Bus) tick(cycle uint64) {
	if cycle < b.addrFree {
		return
	}
	// Round-robin across sources with pending requests.
	n := len(b.queues)
	for i := 0; i < n; i++ {
		src := (b.rrNext + i) % n
		if b.queues[src].len() == 0 {
			continue
		}
		r := b.queues[src].pop()
		b.rrNext = (src + 1) % n
		b.grant(cycle, r)
		return
	}
}

func (b *Bus) grant(cycle uint64, r *Req) {
	r.granted = true
	b.Grants[r.Kind]++
	if b.Trace != nil {
		b.Trace(cycle, r.Kind, r.Src, r.Addr)
	}
	b.ArbWait += cycle - r.submitAt
	cpb := uint64(b.p.CPB)
	addrPhase := uint64(b.p.ArbLat+b.p.SnoopLat) * cpb

	serviceLat, beats := 0, 0
	if b.handler != nil {
		serviceLat, beats = b.handler(r, cycle)
	}
	b.BeatsCarried += uint64(beats)

	ready := cycle + addrPhase + uint64(serviceLat) + b.Faults.BusDelay(cycle)
	done := ready
	if beats > 0 {
		start := max64(ready, b.dataFree)
		done = start + uint64(beats)*cpb
		b.dataFree = done
	}
	if b.p.Pipelined {
		// A pipelined bus can accept a new address phase every bus cycle.
		b.addrFree = cycle + cpb
	} else {
		// A non-pipelined bus is occupied for the whole transaction.
		b.addrFree = done
	}
	if r.Owner != nil {
		r.Owner.ReqDone(r, done)
	} else if r.Done != nil {
		r.Done(done)
	}
}

// ReqInfo is a diagnostic snapshot of one queued (ungranted) request.
type ReqInfo struct {
	Kind     Kind
	Addr     uint64
	Src      int
	Q        int
	SubmitAt uint64
}

// PendingRequests snapshots every queued request in source order, for
// deadlock forensics.
func (b *Bus) PendingRequests() []ReqInfo {
	var out []ReqInfo
	for i := range b.queues {
		q := &b.queues[i]
		for _, r := range q.reqs[q.head:] {
			out = append(out, ReqInfo{Kind: r.Kind, Addr: r.Addr, Src: r.Src, Q: r.Q, SubmitAt: r.submitAt})
		}
	}
	return out
}

// AddrFree returns the next CPU cycle the address path is free.
func (b *Bus) AddrFree() uint64 { return b.addrFree }

// DataFree returns the next CPU cycle the data path is free.
func (b *Bus) DataFree() uint64 { return b.dataFree }

// TotalGrants returns the number of granted transactions across kinds.
func (b *Bus) TotalGrants() uint64 {
	var t uint64
	for _, g := range b.Grants {
		t += g
	}
	return t
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
