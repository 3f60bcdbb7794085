// Package core models an in-order multi-issue processor core patterned
// after the paper's Itanium 2 baseline: 6-issue with a 6 ALU / 4 memory /
// 2 FP / 3 branch functional-unit mix, scoreboarded register dependences,
// at most 16 outstanding loads, and fire-and-forget stores tracked through
// the memory subsystem's OzQ.
//
// Every cycle is attributed to exactly one breakdown bucket (paper
// Figures 7, 10-12): cycles that issue application work count as PreL2,
// cycles that issue only communication-overhead instructions count as
// PostL2 (the extra execute/commit bandwidth those instructions consume),
// and stall cycles are charged to the machine region the blocking
// operation currently waits in.
package core

import (
	"fmt"
	"math/bits"
	"strings"

	"hfstream/internal/isa"
	"hfstream/internal/port"
	"hfstream/internal/stats"
	"hfstream/trace"
)

// Params configures a core.
type Params struct {
	IssueWidth          int
	FUs                 [isa.NumFUs]int
	MaxOutstandingLoads int

	// RegMappedQueues models the paper's §3.1.3 design option: a portion
	// of the register address space names inter-core queues, so produce
	// and consume fold into the instructions that define or use the
	// value. Modeled by letting produce/consume issue without consuming
	// an issue slot or memory functional unit (their dependence height
	// and queue semantics are unchanged).
	RegMappedQueues bool
}

// DefaultParams returns the paper's Itanium 2 core configuration.
func DefaultParams() Params {
	return Params{
		IssueWidth:          6,
		FUs:                 [isa.NumFUs]int{isa.FUALU: 6, isa.FUMem: 4, isa.FUFP: 2, isa.FUBranch: 3},
		MaxOutstandingLoads: 16,
	}
}

// StallReason summarises why issue stopped in a cycle (for debugging and
// deadlock reports).
type StallReason int

// Stall reasons.
const (
	StallNone StallReason = iota
	StallOperand
	StallToken
	StallFU
	StallOzQFull
	StallLoadLimit
	StallFence
	StallQueueFull
	StallQueueEmpty
	StallWAW
	StallHalted

	// NumStallReasons sizes StallCycles.
	NumStallReasons
)

// String names the stall reason.
func (s StallReason) String() string {
	switch s {
	case StallNone:
		return "none"
	case StallOperand:
		return "operand-latency"
	case StallToken:
		return "memory-token"
	case StallFU:
		return "fu-conflict"
	case StallOzQFull:
		return "ozq-full"
	case StallLoadLimit:
		return "load-limit"
	case StallFence:
		return "fence"
	case StallQueueFull:
		return "queue-full"
	case StallQueueEmpty:
		return "queue-empty"
	case StallWAW:
		return "waw-hazard"
	case StallHalted:
		return "halted"
	default:
		return fmt.Sprintf("StallReason(%d)", int(s))
	}
}

// StallCycles accumulates zero-issue cycles by blocking reason. The
// StallNone slot is unused; reasons from StallOperand through StallHalted
// sum to the core's total stall cycles (Cycles - IssueCycles).
type StallCycles [NumStallReasons]uint64

// Total sums stall cycles across every reason.
func (s *StallCycles) Total() uint64 {
	var t uint64
	for _, c := range s {
		t += c
	}
	return t
}

// Summary renders the non-zero counters as "reason=n ..." plus the total.
func (s *StallCycles) Summary() string {
	var parts []string
	for r := StallReason(1); r < NumStallReasons; r++ {
		if s[r] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", r, s[r]))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return fmt.Sprintf("%s total=%d", strings.Join(parts, " "), s.Total())
}

// imeta is the predecoded form of one instruction: the instruction itself
// plus the per-issue opcode property lookups (FU class, operand roles,
// latency, reg-mapped queue exemption) resolved once at core construction
// instead of per attempt, in one cache-friendly slot per PC.
type imeta struct {
	in       isa.Instr
	fu       isa.FU
	free     bool // reg-mapped queue op: no issue slot, no FU
	readsRa  bool
	readsRb  bool
	writesRd bool
	lat      uint64
}

// Core executes one thread program against a memory port and an optional
// streaming port.
type Core struct {
	id   int
	p    Params
	prog *isa.Program
	meta []imeta // predecoded Instrs, same indexing as prog.Instrs
	pc   int

	regs  [isa.NumRegs]uint64
	ready [isa.NumRegs]uint64
	pend  [isa.NumRegs]*port.Token
	// pendMask has bit r set iff pend[r] != nil, so the per-cycle collect
	// and outstanding-load scans touch only live registers.
	pendMask uint64

	memp port.Mem
	strm port.Stream

	inflight []*port.Token // fire-and-forget tokens (stores, fences, produces)
	loads    int           // outstanding load count

	halted bool
	// replay reports that the last Tick issued nothing and stalled on a
	// hazard inside the core (see Replay). It shares halted's word: one
	// more would take Core, with its allocation header, past 2 KiB.
	replay bool

	// Stats.
	Cycles      uint64
	Issued      uint64
	IssuedComm  uint64
	IssuedLoads uint64
	Breakdown   stats.Breakdown
	LastStall   StallReason
	LastPC      int

	// IssueCycles counts cycles in which at least one instruction issued;
	// every other active cycle is a stall, so
	// Stalls.Total() == Cycles - IssueCycles always holds.
	IssueCycles uint64
	// Stalls attributes each zero-issue cycle to its blocking reason
	// (drain cycles after halt count as StallHalted).
	Stalls StallCycles
	// StallRegions attributes the same zero-issue cycles to the machine
	// region responsible (the blocking token's location; PreL2 for purely
	// core-local hazards), so StallRegions totals equal Stalls totals.
	StallRegions stats.Breakdown
	// Produces and Consumes count successfully issued queue operations.
	Produces uint64
	Consumes uint64

	// Tracer, when non-nil, receives issue/retire/queue-op/stall events.
	Tracer *trace.Buffer

	// Tokens, when non-nil, is the run-scoped token arena; the core owns
	// the tokens it tracks and returns each one as it collects it.
	Tokens *port.TokenPool

	// Stall-run coalescing for the tracer: consecutive zero-issue cycles
	// with one reason emit a single KindStall event with a duration.
	stallSince uint64
	stallCur   StallReason

	// Fast-forward bookkeeping: the bucket the last zero-issue cycle was
	// charged to, and (for operand stalls) the cycle the blocking register
	// becomes ready. See FastForward and NextWake.
	lastStallBucket stats.Bucket
	stallWake       uint64
	// stallTok is the token the last zero-issue cycle waited on (nil
	// unless memory-token); Replay charges its live Loc.
	stallTok *port.Token

	// nextDue is the exact earliest DoneAt over every tracked token:
	// issue updates it when a token is recorded, Token.Complete lowers it
	// through the token's Due pointer, and collect recomputes it. Cycles
	// before nextDue cannot collect anything, so the per-cycle token scans
	// are skipped entirely.
	nextDue uint64
}

// New builds a core running prog. strm may be nil for programs without
// produce/consume instructions.
func New(id int, p Params, prog *isa.Program, memp port.Mem, strm port.Stream) *Core {
	if p.IssueWidth <= 0 {
		p = DefaultParams()
	}
	meta := make([]imeta, len(prog.Instrs))
	for i, in := range prog.Instrs {
		meta[i] = imeta{
			in:       in,
			fu:       in.Op.FU(),
			free:     p.RegMappedQueues && (in.Op == isa.Produce || in.Op == isa.Consume),
			readsRa:  in.Op.ReadsRa(),
			readsRb:  in.Op.ReadsRb(),
			writesRd: in.Op.WritesRd(),
			lat:      uint64(in.Op.Latency()),
		}
	}
	return &Core{id: id, p: p, prog: prog, meta: meta, pc: 0, memp: memp, strm: strm,
		nextDue: port.Pending}
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Reg returns the architectural value of register r (for tests).
func (c *Core) Reg(r isa.Reg) uint64 { return c.regs[r] }

// SetReg initializes register r before the program starts.
func (c *Core) SetReg(r isa.Reg, v uint64) { c.regs[r] = v }

// Halted reports whether the program executed its halt instruction.
func (c *Core) Halted() bool { return c.halted }

// Done reports whether the core halted and all its operations drained.
func (c *Core) Done(cycle uint64) bool {
	if !c.halted {
		return false
	}
	// nextDue is the exact earliest completion over tracked tokens, so an
	// earlier cycle with anything still tracked cannot have drained.
	if cycle < c.nextDue && (c.pendMask != 0 || len(c.inflight) != 0) {
		return false
	}
	m := c.pendMask
	for m != 0 {
		r := bits.TrailingZeros64(m)
		m &= m - 1
		if !c.pend[r].Done(cycle) {
			return false
		}
	}
	for _, t := range c.inflight {
		if !t.Done(cycle) {
			return false
		}
	}
	return true
}

// track records a freshly issued token in the earliest-completion cache:
// the token notifies nextDue when it completes, and a token that already
// carries a completion cycle lowers it immediately.
func (c *Core) track(t *port.Token) {
	t.Due = &c.nextDue
	if t.DoneAt < c.nextDue {
		c.nextDue = t.DoneAt
	}
}

// collect retires every token done by cycle and recomputes nextDue. Tick
// calls it only once cycle reaches nextDue: before that nothing is due.
func (c *Core) collect(cycle uint64) {
	due := uint64(port.Pending)
	m := c.pendMask
	for m != 0 {
		r := bits.TrailingZeros64(m)
		m &= m - 1
		t := c.pend[r]
		if !t.Done(cycle) {
			if t.DoneAt < due {
				due = t.DoneAt
			}
			continue
		}
		c.regs[r] = t.Value
		c.ready[r] = t.DoneAt
		c.pend[r] = nil
		c.pendMask &^= 1 << uint(r)
		if c.Tracer != nil {
			c.Tracer.Add(trace.Event{Cycle: cycle, Kind: trace.KindRetire,
				Core: c.id, PC: -1, Q: -1, Op: "writeback", Val: t.Value})
		}
		c.Tokens.Put(t)
	}
	// Rebuild inflight only when something actually completed, so the
	// common nothing-due tick performs no pointer writes.
	i, n := 0, len(c.inflight)
	for i < n {
		t := c.inflight[i]
		if t.Done(cycle) {
			break
		}
		if t.DoneAt < due {
			due = t.DoneAt
		}
		i++
	}
	if i == n {
		c.nextDue = due
		return
	}
	kept := c.inflight[:i]
	for ; i < n; i++ {
		t := c.inflight[i]
		if !t.Done(cycle) {
			if t.DoneAt < due {
				due = t.DoneAt
			}
			kept = append(kept, t)
		} else {
			c.Tokens.Put(t)
		}
	}
	c.inflight = kept
	c.nextDue = due
}

// Tick advances the core one cycle. Call after the memory subsystem has
// ticked.
func (c *Core) Tick(cycle uint64) {
	if cycle >= c.nextDue {
		c.collect(cycle)
	}
	// Every pend token left is outstanding; that count is the core's
	// in-flight load/consume limit check, recomputed each tick exactly as
	// the old per-tick collect scan did.
	c.loads = bits.OnesCount64(c.pendMask)
	c.replay = false
	if c.Done(cycle) {
		return
	}
	c.Cycles++
	if c.halted {
		// Draining: charge the pending token of the lowest-numbered
		// register, else the first incomplete fire-and-forget token in
		// issue order (drainBucket).
		b := c.drainBucket(cycle)
		c.Breakdown.Add(b, 1)
		c.Stalls[StallHalted]++
		c.StallRegions.Add(b, 1)
		c.noteStall(cycle, StallHalted)
		c.LastStall = StallHalted
		c.lastStallBucket = b
		return
	}

	pc, meta := c.pc, c.meta
	width, fus := c.p.IssueWidth, &c.p.FUs
	issued := 0
	commOnly := true
	var fuUsed [isa.NumFUs]int
	stall := StallNone
	var stallTok *port.Token
	var stallWake uint64

issueLoop:
	for issued < width {
		m := &meta[pc]
		in := &m.in
		fu := m.fu
		// Register-mapped queue operations ride on the instructions that
		// produce or use the value: no issue slot, no FU.
		free := m.free
		if !free && fuUsed[fu] >= fus[fu] {
			stall = StallFU
			break
		}
		// Operand readiness.
		if m.readsRa {
			if t := c.pend[in.Ra]; t != nil {
				stall, stallTok = StallToken, t
				break
			}
			if c.ready[in.Ra] > cycle {
				stall, stallWake = StallOperand, c.ready[in.Ra]
				break
			}
		}
		if m.readsRb {
			if t := c.pend[in.Rb]; t != nil {
				stall, stallTok = StallToken, t
				break
			}
			if c.ready[in.Rb] > cycle {
				stall, stallWake = StallOperand, c.ready[in.Rb]
				break
			}
		}
		if m.writesRd && c.pend[in.Rd] != nil {
			stall = StallWAW
			break
		}

		switch in.Op {
		case isa.Halt:
			c.halted = true
			issued++
			c.note(cycle, pc, in)
			break issueLoop

		case isa.B, isa.Beqz, isa.Bnez:
			taken := in.Op == isa.B ||
				(in.Op == isa.Beqz && c.regs[in.Ra] == 0) ||
				(in.Op == isa.Bnez && c.regs[in.Ra] != 0)
			fuUsed[fu]++
			issued++
			c.note(cycle, pc, in)
			if !in.Comm {
				commOnly = false
			}
			if taken {
				pc = int(in.Imm)
				break issueLoop
			}
			pc++

		case isa.Ld:
			if c.loads >= c.p.MaxOutstandingLoads {
				stall = StallLoadLimit
				break issueLoop
			}
			if !c.memp.CanAccept() {
				stall = StallOzQFull
				break issueLoop
			}
			addr := c.regs[in.Ra] + uint64(in.Imm)
			tok := c.memp.Load(cycle, addr)
			c.track(tok)
			c.pend[in.Rd] = tok
			c.pendMask |= 1 << uint(in.Rd)
			c.loads++
			c.IssuedLoads++
			fuUsed[fu]++
			issued++
			c.note(cycle, pc, in)
			if !in.Comm {
				commOnly = false
			}
			pc++

		case isa.St:
			if !c.memp.CanAccept() {
				stall = StallOzQFull
				break issueLoop
			}
			addr := c.regs[in.Ra] + uint64(in.Imm)
			tok := c.memp.Store(cycle, addr, c.regs[in.Rb])
			c.track(tok)
			c.inflight = append(c.inflight, tok)
			fuUsed[fu]++
			issued++
			c.note(cycle, pc, in)
			if !in.Comm {
				commOnly = false
			}
			pc++

		case isa.Fence:
			if !c.memp.CanAccept() {
				stall = StallFence
				break issueLoop
			}
			tok := c.memp.Fence(cycle)
			c.track(tok)
			c.inflight = append(c.inflight, tok)
			fuUsed[fu]++
			issued++
			c.note(cycle, pc, in)
			pc++

		case isa.Produce:
			tok, ok := c.strm.Produce(cycle, in.Q, c.regs[in.Ra])
			if !ok {
				stall = StallQueueFull
				break issueLoop
			}
			c.track(tok)
			c.inflight = append(c.inflight, tok)
			if !free {
				fuUsed[fu]++
				issued++
			}
			c.Produces++
			c.note(cycle, pc, in)
			pc++

		case isa.Consume:
			tok, ok := c.strm.Consume(cycle, in.Q)
			if !ok {
				stall = StallQueueEmpty
				break issueLoop
			}
			c.track(tok)
			c.pend[in.Rd] = tok
			c.pendMask |= 1 << uint(in.Rd)
			if !free {
				fuUsed[fu]++
				issued++
			}
			c.Consumes++
			c.note(cycle, pc, in)
			pc++

		default:
			// A register-register instruction: evaluate it and set the
			// destination's ready cycle from the opcode latency.
			if in.Op != isa.Nop {
				c.regs[in.Rd] = isa.Eval(in.Op, c.regs[in.Ra], c.regs[in.Rb], in.Imm)
				c.ready[in.Rd] = cycle + m.lat
			}
			fuUsed[fu]++
			issued++
			c.note(cycle, pc, in)
			if !in.Comm {
				commOnly = false
			}
			pc++
		}
	}

	c.pc = pc
	c.LastStall = stall
	c.LastPC = pc
	switch {
	case issued == 0:
		b := stats.PreL2
		if stallTok != nil {
			b = stallTok.Loc
		}
		c.Breakdown.Add(b, 1)
		c.Stalls[stall]++
		c.StallRegions.Add(b, 1)
		c.lastStallBucket = b
		c.stallWake = stallWake
		c.stallTok = stallTok
		c.replay = stall == StallToken || stall == StallOperand || stall == StallWAW || stall == StallLoadLimit
		c.noteStall(cycle, stall)
	case commOnly:
		c.Breakdown.Add(stats.PostL2, 1)
		c.IssueCycles++
		c.flushStallTrace(cycle)
	default:
		c.Breakdown.Add(stats.PreL2, 1)
		c.IssueCycles++
		c.flushStallTrace(cycle)
	}
}

// noteStall extends or starts the current stall run for the tracer.
func (c *Core) noteStall(cycle uint64, r StallReason) {
	if c.Tracer == nil {
		return
	}
	if c.stallSince != 0 && c.stallCur == r {
		return
	}
	c.flushStallTrace(cycle)
	c.stallSince = cycle
	c.stallCur = r
}

// flushStallTrace emits the in-progress stall run, if any, as one event
// covering [stallSince, endCycle).
func (c *Core) flushStallTrace(endCycle uint64) {
	if c.Tracer == nil || c.stallSince == 0 {
		return
	}
	dur := endCycle - c.stallSince
	if dur == 0 {
		dur = 1
	}
	c.Tracer.Add(trace.Event{Cycle: c.stallSince, Dur: dur, Kind: trace.KindStall,
		Core: c.id, PC: c.pc, Q: -1, Op: c.stallCur.String()})
	c.stallSince = 0
}

// FinishTrace flushes any in-progress stall run; the simulator calls it
// once after the final cycle so trailing drain stalls appear in the trace.
func (c *Core) FinishTrace(endCycle uint64) { c.flushStallTrace(endCycle) }

// FastForward accounts n skipped dead cycles exactly as n repetitions of
// the zero-issue Tick the core just executed would have: the same stall
// reason, breakdown bucket, and region are charged per cycle. The caller
// (the simulator's idle fast-forward) guarantees that nothing the core
// observes can change during the skipped cycles.
func (c *Core) FastForward(n uint64) {
	c.Cycles += n
	c.Breakdown.Add(c.lastStallBucket, n)
	c.Stalls[c.LastStall] += n
	c.StallRegions.Add(c.lastStallBucket, n)
}

// Replay charges cycle as one more cycle of the stall the last Tick ended
// in, instead of ticking, when that Tick issued nothing and provably
// repeats at cycle: it stalled on a hazard inside the core (memory-token,
// operand-latency, waw-hazard or load-limit), no tracked token is due
// (cycle < nextDue, so collect would retire nothing) and an operand stall's
// register is not yet ready. A token stall is charged to the blocking
// token's live Loc, which is what Tick would read. It reports whether it
// charged the cycle; when it did not, the caller must Tick.
func (c *Core) Replay(cycle uint64) bool {
	if !c.replay || cycle >= c.nextDue || (c.LastStall == StallOperand && cycle >= c.stallWake) {
		return false
	}
	if c.stallTok != nil {
		c.lastStallBucket = c.stallTok.Loc
	}
	c.FastForward(1)
	return true
}

// NextWake returns the earliest future cycle at which this core's issue or
// drain state can change without outside activity: the ready cycle of the
// operand it stalled on, or the completion of any outstanding memory/
// stream token (which can unblock issue, change the drain bucket, or
// finish the drain). Event-driven waits (queue full/empty, OzQ full,
// fence) contribute no wake of their own — the component that unblocks
// them reports one instead. Returns ^uint64(0) when only outside activity
// can wake the core.
func (c *Core) NextWake(cycle uint64) uint64 {
	// nextDue caches the exact earliest completion over every tracked
	// token, so the old pend/inflight scans reduce to one comparison.
	w := c.nextDue
	if c.LastStall == StallOperand && c.stallWake > cycle && c.stallWake < w {
		w = c.stallWake
	}
	if w <= cycle {
		return cycle + 1
	}
	return w
}

// note counts one instruction issued from pc; it is small enough to inline
// into the issue loop, leaving the tracer's event to traceIssue.
func (c *Core) note(cycle uint64, pc int, in *isa.Instr) {
	c.Issued++
	if in.Comm {
		c.IssuedComm++
	}
	if c.Tracer != nil {
		c.traceIssue(cycle, pc, in)
	}
}

func (c *Core) traceIssue(cycle uint64, pc int, in *isa.Instr) {
	e := trace.Event{Cycle: cycle, Kind: trace.KindIssue, Core: c.id,
		PC: pc, Q: -1, Op: in.Op.String()}
	if in.Op == isa.Produce || in.Op == isa.Consume {
		e.Kind = trace.KindQueueOp
		e.Q = in.Q
	}
	c.Tracer.Add(e)
}

// drainBucket is where a halted core's drain cycle is charged: the Loc of
// the pending token of the lowest-numbered register not yet done, else of
// the first fire-and-forget token in issue order not yet done, else PreL2.
// It is not the oldest token overall; the golden snapshots pin this rule.
func (c *Core) drainBucket(cycle uint64) stats.Bucket {
	m := c.pendMask
	for m != 0 {
		r := bits.TrailingZeros64(m)
		m &= m - 1
		if t := c.pend[r]; !t.Done(cycle) {
			return t.Loc
		}
	}
	for _, t := range c.inflight {
		if !t.Done(cycle) {
			return t.Loc
		}
	}
	return stats.PreL2
}
