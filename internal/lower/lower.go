// Package lower rewrites produce/consume instructions into the
// shared-memory software-queue sequences used by the EXISTING and MEMOPTI
// design points (paper Figure 4 and Section 4.3): spin on a full/empty
// flag, transfer the data word, fence, update the flag, and advance the
// stream address — roughly ten instructions per communication with a
// dependence height of about four.
//
// Queues with a declared multi-producer/multi-consumer route lower to the
// ticket-striped variant instead: endpoint i of P starts at slot i and
// strides by P, so the item with global ticket k always lives in slot
// k mod Depth and is handled by producer k mod P / consumer k mod C. Each
// slot then has exactly one writer and one clearer, which is what makes
// the flag handshake — and the queue contents — independent of how the
// endpoints interleave. The striped sequences give up the two SPSC cache
// tunings (the producer's guard-line slip and the consumer's batched
// line clear) because both assume exclusive ownership of whole lines.
package lower

import (
	"fmt"

	"hfstream/internal/isa"
	"hfstream/internal/queue"
)

// scratch registers claimed from the top of the register file.
const (
	regAddr  = isa.Reg(isa.NumRegs - 1) // current slot address
	regTmp   = isa.Reg(isa.NumRegs - 2) // flag scratch
	regGuard = isa.Reg(isa.NumRegs - 3) // producer guard-slot address
	// per-queue offset registers are allocated downward from regQBase.
	regQBase = isa.Reg(isa.NumRegs - 4)
)

// Lower rewrites prog's produce/consume instructions into software-queue
// sequences over the given layout. It returns a new program; the input is
// not modified. All queues are treated as 1:1 (the classic dual-core
// case); use LowerRoles for MPMC topologies.
func Lower(prog *isa.Program, layout queue.Layout) (*isa.Program, error) {
	return LowerRoles(prog, layout, 0, nil)
}

// qmode carries one queue's per-thread lowering parameters.
type qmode struct {
	mpmc       bool
	prodInit   int64 // initial producer offset (bytes)
	prodStride int64 // producer offset stride (bytes)
	consInit   int64
	consStride int64
}

// LowerRoles is Lower with MPMC awareness: core is the ID this program
// will run on, and roles maps queue IDs to their declared endpoint sets.
// Queues without a route (or with a 1:1 route) emit the classic
// sequences bit-for-bit; MPMC queues emit ticket-striped sequences in
// which this core touches only the slots its role index owns.
func LowerRoles(prog *isa.Program, layout queue.Layout, core int, roles map[int]queue.MPMCRoute) (*isa.Program, error) {
	if !layout.HasFlags() {
		return nil, fmt.Errorf("lower: layout QLU %d leaves no room for flag words", layout.QLU)
	}
	// Collect the queues this thread touches and check register usage.
	queues := []int{}
	seen := map[int]bool{}
	produces := map[int]bool{}
	consumes := map[int]bool{}
	maxReg := isa.Reg(0)
	for _, in := range prog.Instrs {
		if in.Op == isa.Produce || in.Op == isa.Consume {
			if !seen[in.Q] {
				seen[in.Q] = true
				queues = append(queues, in.Q)
			}
			if in.Op == isa.Produce {
				produces[in.Q] = true
			} else {
				consumes[in.Q] = true
			}
		}
		if in.Op.WritesRd() && in.Rd > maxReg {
			maxReg = in.Rd
		}
		if in.Op.ReadsRa() && in.Ra > maxReg {
			maxReg = in.Ra
		}
		if in.Op.ReadsRb() && in.Rb > maxReg {
			maxReg = in.Rb
		}
	}
	if len(queues) == 0 {
		return prog, nil
	}

	qBytes := int64(layout.QueueBytes())
	slotBytes := int64(layout.SlotBytes())
	slots := qBytes / slotBytes

	modes := map[int]qmode{}
	for _, q := range queues {
		m := qmode{prodStride: slotBytes, consStride: slotBytes}
		if r, ok := roles[q]; ok && r.IsMPMC() {
			if produces[q] && consumes[q] {
				return nil, fmt.Errorf("lower: program %s both produces and consumes MPMC q%d (one offset register cannot track two roles)", prog.Name, q)
			}
			if slots%int64(r.P()) != 0 || slots%int64(r.C()) != 0 {
				return nil, fmt.Errorf("lower: MPMC q%d endpoints (%dP/%dC) do not divide the %d-slot layout (slot ownership would drift across wraps)",
					q, r.P(), r.C(), slots)
			}
			m.mpmc = true
			if produces[q] {
				pIdx := r.ProducerIndex(core)
				if pIdx < 0 {
					return nil, fmt.Errorf("lower: program %s on core %d produces MPMC q%d but the route lists producers %v", prog.Name, core, q, r.Producers)
				}
				m.prodInit = int64(pIdx) * slotBytes
				m.prodStride = int64(r.P()) * slotBytes
			}
			if consumes[q] {
				cIdx := r.ConsumerIndex(core)
				if cIdx < 0 {
					return nil, fmt.Errorf("lower: program %s on core %d consumes MPMC q%d but the route lists consumers %v", prog.Name, core, q, r.Consumers)
				}
				m.consInit = int64(cIdx) * slotBytes
				m.consStride = int64(r.C()) * slotBytes
			}
		}
		modes[q] = m
	}

	offReg := map[int]isa.Reg{}
	baseReg := map[int]isa.Reg{}
	next := regQBase
	for _, q := range queues {
		offReg[q] = next
		next--
		baseReg[q] = next
		next--
	}
	if maxReg >= next+1 {
		return nil, fmt.Errorf("lower: program %s uses register r%d, which collides with lowering scratch registers (r%d and up)",
			prog.Name, maxReg, next+1)
	}

	out := &isa.Program{Name: prog.Name + ".swq"}

	emit := func(in isa.Instr) { out.Instrs = append(out.Instrs, in) }
	comm := func(in isa.Instr) {
		in.Comm = true
		emit(in)
	}

	// Prologue: base addresses and offsets. An MPMC endpoint starts at
	// the slot its role index owns.
	for _, q := range queues {
		off := modes[q].prodInit
		if consumes[q] {
			off = modes[q].consInit
		}
		comm(isa.Instr{Op: isa.MovI, Rd: baseReg[q], Imm: int64(layout.SlotAddr(q, 0))})
		comm(isa.Instr{Op: isa.MovI, Rd: offReg[q], Imm: off})
	}
	prologue := len(out.Instrs)

	// First pass: map original instruction index -> lowered index.
	newIndex := make([]int, len(prog.Instrs)+1)
	idx := prologue
	for i, in := range prog.Instrs {
		newIndex[i] = idx
		switch in.Op {
		case isa.Produce:
			if modes[in.Q].mpmc {
				idx += mpmcProduceLen
			} else {
				idx += produceLen
			}
		case isa.Consume:
			if modes[in.Q].mpmc {
				idx += mpmcConsumeLen
			} else {
				idx += consumeLen(layout)
			}
		default:
			idx++
		}
	}
	newIndex[len(prog.Instrs)] = idx

	// Second pass: emit.
	for _, in := range prog.Instrs {
		switch in.Op {
		case isa.Produce:
			m := modes[in.Q]
			if m.mpmc {
				emitProduceMPMC(comm, in, offReg[in.Q], baseReg[in.Q], len(out.Instrs), m.prodStride, qBytes)
			} else {
				emitProduce(comm, in, offReg[in.Q], baseReg[in.Q], len(out.Instrs), slotBytes, qBytes, int64(layout.LineBytes))
			}
		case isa.Consume:
			m := modes[in.Q]
			if m.mpmc {
				emitConsumeMPMC(comm, in, offReg[in.Q], baseReg[in.Q], len(out.Instrs), m.consStride, qBytes)
			} else {
				emitConsume(comm, in, offReg[in.Q], baseReg[in.Q], len(out.Instrs), layout)
			}
		default:
			if in.Op.IsBranch() {
				in.Imm = int64(newIndex[in.Imm])
			}
			emit(in)
		}
	}
	// A trailing consume's skip branch lands one instruction past its
	// expansion; when the consume ends the program that target needs a
	// real landing pad for the lowered program to validate.
	if n := len(prog.Instrs); n > 0 && prog.Instrs[n-1].Op == isa.Consume {
		emit(isa.Instr{Op: isa.Halt})
	}
	return out, nil
}

// produceLen is the emitted produce sequence length; the index mapping in
// Lower depends on it. The consume length depends on the layout's QLU
// (its batched flag clear writes one store per slot on the line).
const produceLen = 12

func consumeLen(layout queue.Layout) int { return 10 + layout.QLU }

// mpmcProduceLen / mpmcConsumeLen size the ticket-striped sequences.
const (
	mpmcProduceLen = 9
	mpmcConsumeLen = 9
)

// emitProduce writes the producer-side sequence. The spin checks the
// guard slot one cache line ahead (a standard tuned-software-queue slip:
// the producer stays a line behind the consumer's wrap point), so its
// polling read does not steal the line the consumer is actively
// clearing. The guard flag being empty implies the current slot's flag
// is empty too, since the consumer clears flags in order.
//
//	addi rGuard, rOff, line    ; guard-slot offset (one line ahead)
//	andi rGuard, rGuard, qmask
//	add  rGuard, rBase, rGuard
//	ld   rTmp, [rGuard+8]      ; spin: load guard full flag
//	bnez rTmp, spin            ; spin while full
//	add  rAddr, rBase, rOff    ; stream address
//	st   [rAddr+0], value      ; data transfer
//	fence                      ; data before flag
//	movi rTmp, 1
//	st   [rAddr+8], rTmp       ; mark full
//	addi rOff, rOff, slot      ; advance stream address
//	andi rOff, rOff, qmask
func emitProduce(comm func(isa.Instr), in isa.Instr, rOff, rBase isa.Reg, at int, slotBytes, qBytes, lineBytes int64) {
	spin := int64(at + 3)
	comm(isa.Instr{Op: isa.AddI, Rd: regGuard, Ra: rOff, Imm: lineBytes})
	comm(isa.Instr{Op: isa.AndI, Rd: regGuard, Ra: regGuard, Imm: qBytes - 1})
	comm(isa.Instr{Op: isa.Add, Rd: regGuard, Ra: rBase, Rb: regGuard})
	comm(isa.Instr{Op: isa.Ld, Rd: regTmp, Ra: regGuard, Imm: 8})
	comm(isa.Instr{Op: isa.Bnez, Ra: regTmp, Imm: spin})
	comm(isa.Instr{Op: isa.Add, Rd: regAddr, Ra: rBase, Rb: rOff})
	comm(isa.Instr{Op: isa.St, Ra: regAddr, Imm: 0, Rb: in.Ra})
	comm(isa.Instr{Op: isa.Fence})
	comm(isa.Instr{Op: isa.MovI, Rd: regTmp, Imm: 1})
	comm(isa.Instr{Op: isa.St, Ra: regAddr, Imm: 8, Rb: regTmp})
	comm(isa.Instr{Op: isa.AddI, Rd: rOff, Ra: rOff, Imm: slotBytes})
	comm(isa.Instr{Op: isa.AndI, Rd: rOff, Ra: rOff, Imm: qBytes - 1})
}

// emitConsume writes the consumer-side sequence with batched lazy flag
// clearing: per-item the consumer only spins on its slot's full flag and
// reads the data; once it finishes the last slot of a cache line it
// clears the whole line's flags in one burst (a single upgrade of a line
// it already holds). Combined with the producer's guard-slot slip this
// keeps hot queue lines read-shared instead of ping-ponging per item —
// the standard tuned software-queue discipline.
//
//	add  rAddr, rBase, rOff
//	ld   rTmp, [rAddr+8]      ; spin: load full flag
//	beqz rTmp, spin           ; spin while empty
//	ld   rd, [rAddr+0]        ; data transfer
//	addi rOff, rOff, slot     ; advance stream address
//	andi rOff, rOff, qmask
//	andi rTmp, rOff, line-1   ; crossed a line boundary?
//	bnez rTmp, skip
//	fence                     ; reads precede the batched clear
//	movi rTmp, 0
//	st   [rAddr+8-16k], rTmp  ; clear the QLU flags of the finished line
//	...
//
// skip:
func emitConsume(comm func(isa.Instr), in isa.Instr, rOff, rBase isa.Reg, at int, layout queue.Layout) {
	slotBytes := int64(layout.SlotBytes())
	qBytes := int64(layout.QueueBytes())
	lineBytes := int64(layout.LineBytes)
	spin := int64(at + 1)
	skip := int64(at + 10 + layout.QLU)
	comm(isa.Instr{Op: isa.Add, Rd: regAddr, Ra: rBase, Rb: rOff})
	comm(isa.Instr{Op: isa.Ld, Rd: regTmp, Ra: regAddr, Imm: 8})
	comm(isa.Instr{Op: isa.Beqz, Ra: regTmp, Imm: spin})
	comm(isa.Instr{Op: isa.Ld, Rd: in.Rd, Ra: regAddr, Imm: 0})
	comm(isa.Instr{Op: isa.AddI, Rd: rOff, Ra: rOff, Imm: slotBytes})
	comm(isa.Instr{Op: isa.AndI, Rd: rOff, Ra: rOff, Imm: qBytes - 1})
	comm(isa.Instr{Op: isa.AndI, Rd: regTmp, Ra: rOff, Imm: lineBytes - 1})
	comm(isa.Instr{Op: isa.Bnez, Ra: regTmp, Imm: skip})
	comm(isa.Instr{Op: isa.Fence})
	comm(isa.Instr{Op: isa.MovI, Rd: regTmp, Imm: 0})
	for i := 0; i < layout.QLU; i++ {
		comm(isa.Instr{Op: isa.St, Ra: regAddr, Imm: 8 - int64(i)*slotBytes, Rb: regTmp})
	}
	// skip: lands on the instruction after the sequence.
}

// emitProduceMPMC writes the ticket-striped producer sequence: spin on
// this producer's own slot (the consumer that emptied it last cleared its
// flag directly — no guard-line slip, since the line is shared with other
// endpoints anyway), then advance by P slots.
//
//	add  rAddr, rBase, rOff
//	ld   rTmp, [rAddr+8]      ; spin: own slot's full flag
//	bnez rTmp, spin           ; spin while full
//	st   [rAddr+0], value     ; data transfer
//	fence                     ; data before flag
//	movi rTmp, 1
//	st   [rAddr+8], rTmp      ; mark full
//	addi rOff, rOff, P*slot   ; next owned slot
//	andi rOff, rOff, qmask
func emitProduceMPMC(comm func(isa.Instr), in isa.Instr, rOff, rBase isa.Reg, at int, stride, qBytes int64) {
	spin := int64(at + 1)
	comm(isa.Instr{Op: isa.Add, Rd: regAddr, Ra: rBase, Rb: rOff})
	comm(isa.Instr{Op: isa.Ld, Rd: regTmp, Ra: regAddr, Imm: 8})
	comm(isa.Instr{Op: isa.Bnez, Ra: regTmp, Imm: spin})
	comm(isa.Instr{Op: isa.St, Ra: regAddr, Imm: 0, Rb: in.Ra})
	comm(isa.Instr{Op: isa.Fence})
	comm(isa.Instr{Op: isa.MovI, Rd: regTmp, Imm: 1})
	comm(isa.Instr{Op: isa.St, Ra: regAddr, Imm: 8, Rb: regTmp})
	comm(isa.Instr{Op: isa.AddI, Rd: rOff, Ra: rOff, Imm: stride})
	comm(isa.Instr{Op: isa.AndI, Rd: rOff, Ra: rOff, Imm: qBytes - 1})
}

// emitConsumeMPMC writes the ticket-striped consumer sequence: per-slot
// eager flag clear (the batched line clear would wipe slots owned by
// other consumers), then advance by C slots.
//
//	add  rAddr, rBase, rOff
//	ld   rTmp, [rAddr+8]      ; spin: own slot's full flag
//	beqz rTmp, spin           ; spin while empty
//	ld   rd, [rAddr+0]        ; data transfer
//	fence                     ; read precedes the clear
//	movi rTmp, 0
//	st   [rAddr+8], rTmp      ; mark empty
//	addi rOff, rOff, C*slot   ; next owned slot
//	andi rOff, rOff, qmask
func emitConsumeMPMC(comm func(isa.Instr), in isa.Instr, rOff, rBase isa.Reg, at int, stride, qBytes int64) {
	spin := int64(at + 1)
	comm(isa.Instr{Op: isa.Add, Rd: regAddr, Ra: rBase, Rb: rOff})
	comm(isa.Instr{Op: isa.Ld, Rd: regTmp, Ra: regAddr, Imm: 8})
	comm(isa.Instr{Op: isa.Beqz, Ra: regTmp, Imm: spin})
	comm(isa.Instr{Op: isa.Ld, Rd: in.Rd, Ra: regAddr, Imm: 0})
	comm(isa.Instr{Op: isa.Fence})
	comm(isa.Instr{Op: isa.MovI, Rd: regTmp, Imm: 0})
	comm(isa.Instr{Op: isa.St, Ra: regAddr, Imm: 8, Rb: regTmp})
	comm(isa.Instr{Op: isa.AddI, Rd: rOff, Ra: rOff, Imm: stride})
	comm(isa.Instr{Op: isa.AndI, Rd: rOff, Ra: rOff, Imm: qBytes - 1})
}
