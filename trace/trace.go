// Package trace records cycle-level simulator events — instruction issue,
// operand writeback, queue operations, bus grants and stall runs — in a
// bounded ring buffer, and exports them in Chrome's trace_event JSON format
// so a run can be inspected in about:tracing or Perfetto.
//
// Recording is bounded and costs 40 bytes an event in a ring the garbage
// collector never scans: the ring keeps the most recent events and counts
// how many older ones it overwrote, so tracing a long run costs a fixed
// amount of memory and the tail of the execution (usually the interesting
// part for drain and deadlock analysis) is always retained. A producer that
// records many events resolves each op name to a Name once (Buffer.Name)
// and hands the ring that ID (Buffer.Record); Buffer.Add takes a whole
// Event and resolves its Op on every call.
package trace

// Kind classifies a trace event.
type Kind uint8

// Event kinds.
const (
	// KindIssue is one instruction leaving the issue stage.
	KindIssue Kind = iota
	// KindRetire is an in-flight token (load or consume result) writing back.
	KindRetire
	// KindQueueOp is a produce or consume accepted by the streaming device.
	KindQueueOp
	// KindBusGrant is a shared-bus address-phase grant.
	KindBusGrant
	// KindStall is a run of consecutive zero-issue cycles with one blocking
	// reason; Dur carries the run length.
	KindStall

	numKinds
)

// String names the kind (also the Chrome "cat" field).
func (k Kind) String() string {
	switch k {
	case KindIssue:
		return "issue"
	case KindRetire:
		return "retire"
	case KindQueueOp:
		return "queue-op"
	case KindBusGrant:
		return "bus-grant"
	case KindStall:
		return "stall"
	default:
		return "unknown"
	}
}

// KindFromString inverts Kind.String (ok=false for unknown names).
func KindFromString(s string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// Event is one recorded occurrence. Fields not meaningful for a kind are
// zero (or -1 for PC/Q, which have meaningful zero values).
type Event struct {
	// Cycle is the CPU cycle the event occurred (for KindStall, the first
	// cycle of the run).
	Cycle uint64
	// Dur is the event length in cycles (0 renders as 1; stall runs use it).
	Dur uint64
	// Kind classifies the event.
	Kind Kind
	// Core is the core index, or the bus requester for KindBusGrant.
	Core int
	// PC is the program counter for issue events (-1 when not applicable).
	PC int
	// Q is the stream queue number for queue operations (-1 otherwise).
	Q int
	// Op is the instruction mnemonic, stall reason, or bus transaction kind.
	Op string
	// Val is a payload: writeback value, produced value, or bus address.
	Val uint64
}

// Sink is the event destination the top-level API's WithTrace option
// accepts. It is the ring buffer itself; the alias exists so call sites
// read as "where the trace goes" rather than "how it is stored".
type Sink = Buffer

// NewSink returns a Sink with the default capacity (see NewBuffer).
func NewSink() *Sink { return NewBuffer(0) }

// DefaultCap is the ring capacity used when NewBuffer is given a
// non-positive one (64k events, 2 560 KiB).
const DefaultCap = 1 << 16

// Name is an op name resolved by one Buffer: the ID its records carry in
// place of the string. A Name means nothing to another Buffer.
type Name uint16

// maxNames bounds a buffer's name table: Name's range, less the last ID,
// which every op past the bound shares.
const maxNames = 1<<16 - 1

// overflowOp is what an op past a buffer's name bound reads back as.
const overflowOp = "(too many op names)"

// namesHint presizes a buffer's name table: the simulator's producers
// resolve 53 names (33 mnemonics, 11 stall reasons, 8 bus kinds and
// "writeback").
const namesHint = 64

// rec is one event as the ring stores it: Event with the op as a Name and
// the indices as int32, in 40 bytes and without a pointer, so the ring is
// allocated and left alone by the garbage collector as plain memory.
type rec struct {
	cycle, dur, val uint64
	pc, core, q     int32
	op              Name
	kind            Kind
}

// Buffer is a bounded ring of events, safe for single-goroutine use (the
// simulator's cycle loop). When full it overwrites the oldest event.
type Buffer struct {
	evs     []rec
	start   int // index of the oldest event
	n       int // live event count
	dropped uint64

	// names[id] is the op Name id stands for; ids inverts it.
	names []string
	ids   map[string]Name
}

// NewBuffer returns a ring holding at most capacity events (DefaultCap if
// capacity <= 0).
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Buffer{
		evs:   make([]rec, capacity),
		names: make([]string, 0, namesHint),
		ids:   make(map[string]Name, namesHint),
	}
}

// Name returns the ID this buffer records op under, adding op to the
// buffer's name table the first time it is seen. It costs a map lookup:
// a producer calls it once per op it can emit, not once per event.
func (b *Buffer) Name(op string) Name {
	if id, ok := b.ids[op]; ok {
		return id
	}
	if len(b.ids) == maxNames {
		if len(b.names) == maxNames {
			b.names = append(b.names, overflowOp)
		}
		return maxNames
	}
	id := Name(len(b.names))
	b.names = append(b.names, op)
	b.ids[op] = id
	return id
}

// Record adds one event, evicting the oldest if the ring is full. op must
// be a Name this buffer returned. core, pc and q are stored as int32, as
// Add describes.
func (b *Buffer) Record(kind Kind, cycle, dur uint64, core, pc, q int, op Name, val uint64) {
	r := rec{cycle: cycle, dur: dur, val: val,
		pc: int32(pc), core: int32(core), q: int32(q), op: op, kind: kind}
	if b.n < len(b.evs) {
		// The oldest event stays at index 0 until the ring first fills.
		b.evs[b.n] = r
		b.n++
		return
	}
	b.evs[b.start] = r
	if b.start++; b.start == len(b.evs) {
		b.start = 0
	}
	b.dropped++
}

// Add records an event, evicting the oldest if the ring is full. It is
// Record with e.Op resolved through Name on every call.
//
// The ring stores Core, PC and Q as int32, so Events returns them
// truncated to 32 bits; the simulator's values are far smaller. A buffer
// names at most 65 535 distinct ops: an event whose Op would be a new name
// past that is still recorded, and reads back with Op "(too many op
// names)".
func (b *Buffer) Add(e Event) {
	b.Record(e.Kind, e.Cycle, e.Dur, e.Core, e.PC, e.Q, b.Name(e.Op), e.Val)
}

// Len returns the number of live events.
func (b *Buffer) Len() int { return b.n }

// Cap returns the ring capacity.
func (b *Buffer) Cap() int { return len(b.evs) }

// Dropped returns how many events were overwritten after the ring filled.
func (b *Buffer) Dropped() uint64 { return b.dropped }

// Events returns the live events oldest-first.
func (b *Buffer) Events() []Event {
	out := make([]Event, b.n)
	for i := range out {
		r := &b.evs[(b.start+i)%len(b.evs)]
		out[i] = Event{Cycle: r.cycle, Dur: r.dur, Kind: r.kind,
			Core: int(r.core), PC: int(r.pc), Q: int(r.q), Op: b.names[r.op], Val: r.val}
	}
	return out
}
