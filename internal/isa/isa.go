// Package isa defines the small RISC instruction set interpreted by the
// timing simulator.
//
// The ISA stands in for the paper's Itanium 2 target: what matters to the
// study is instruction counts, dependence heights, functional-unit classes
// and the presence of produce/consume/fence primitives, all of which are
// preserved. Registers are 64 untyped 64-bit values; floating-point
// operations reinterpret register bits as float64.
package isa

import "fmt"

// Reg names one of the 64 general registers r0..r63.
type Reg uint8

// NumRegs is the architectural register count.
const NumRegs = 64

// String returns the assembly name of the register.
func (r Reg) String() string { return fmt.Sprintf("r%d", int(r)) }

// Op is an opcode.
type Op uint8

// Opcodes. Immediate variants fold a constant into the instruction to keep
// dynamic instruction counts comparable to the paper's hand-tuned
// sequences.
const (
	Nop Op = iota
	Halt

	// Integer ALU.
	MovI // rd = imm
	Mov  // rd = ra
	Add  // rd = ra + rb
	AddI // rd = ra + imm
	Sub  // rd = ra - rb
	Mul  // rd = ra * rb
	Div  // rd = ra / rb (0 if rb == 0)
	And  // rd = ra & rb
	AndI // rd = ra & imm
	Or   // rd = ra | rb
	Xor  // rd = ra ^ rb
	ShlI // rd = ra << imm
	ShrI // rd = ra >> imm (logical)
	CmpEQ
	CmpNE
	CmpLT // signed
	Sel   // rd = ra if rb != 0 else imm (simple conditional move)

	// Floating point (bits of the registers reinterpreted as float64).
	FAdd
	FSub
	FMul
	FDiv
	I2F // rd = float64(int64(ra))
	F2I // rd = int64(float64(ra))

	// Memory. Effective address is ra + imm.
	Ld // rd = mem[ra+imm]
	St // mem[ra+imm] = rb

	// Branches. The target is the resolved instruction index in Imm.
	B    // unconditional
	Beqz // if ra == 0
	Bnez // if ra != 0

	// Streaming and ordering primitives.
	Produce // queue Q <- ra
	Consume // rd <- queue Q
	// Fence orders the memory operations that enter the L2 controller's
	// OzQ: no younger one proceeds until every older one completes. An
	// L1-hit load never enters the OzQ, so it passes an incomplete fence;
	// the op is not a full barrier (DESIGN.md "Memory ordering").
	Fence

	numOps
)

var opNames = [numOps]string{
	Nop: "nop", Halt: "halt",
	MovI: "movi", Mov: "mov", Add: "add", AddI: "addi", Sub: "sub",
	Mul: "mul", Div: "div", And: "and", AndI: "andi", Or: "or",
	Xor: "xor", ShlI: "shli", ShrI: "shri",
	CmpEQ: "cmpeq", CmpNE: "cmpne", CmpLT: "cmplt", Sel: "sel",
	FAdd: "fadd", FSub: "fsub", FMul: "fmul", FDiv: "fdiv",
	I2F: "i2f", F2I: "f2i",
	Ld: "ld", St: "st",
	B: "b", Beqz: "beqz", Bnez: "bnez",
	Produce: "produce", Consume: "consume", Fence: "fence",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// FU identifies a functional-unit class, matching the paper's Itanium 2
// issue constraints (6 ALU, 4 memory, 2 FP, 3 branch per cycle).
type FU int

// Functional-unit classes.
const (
	FUALU FU = iota
	FUMem
	FUFP
	FUBranch
	NumFUs
)

// String names the FU class.
func (f FU) String() string {
	switch f {
	case FUALU:
		return "ALU"
	case FUMem:
		return "MEM"
	case FUFP:
		return "FP"
	case FUBranch:
		return "BR"
	default:
		return fmt.Sprintf("FU(%d)", int(f))
	}
}

// FUOf returns the functional unit class needed by the opcode.
func (o Op) FU() FU {
	switch o {
	case Ld, St, Fence, Produce, Consume:
		return FUMem
	case FAdd, FSub, FMul, FDiv, I2F, F2I:
		return FUFP
	case B, Beqz, Bnez, Halt:
		return FUBranch
	default:
		return FUALU
	}
}

// Latency returns the fixed execution latency in cycles for non-memory
// operations. Memory operations have variable latency determined by the
// memory system; this returns their minimum (issue-to-use of 1).
func (o Op) Latency() int {
	switch o {
	case Mul:
		return 3
	case Div:
		return 12
	case FAdd, FSub, FMul, I2F, F2I:
		return 4
	case FDiv:
		return 16
	default:
		return 1
	}
}

// IsBranch reports whether the opcode redirects control flow.
func (o Op) IsBranch() bool { return o == B || o == Beqz || o == Bnez }

// WritesRd reports whether the opcode writes a destination register.
func (o Op) WritesRd() bool {
	switch o {
	case Nop, Halt, St, B, Beqz, Bnez, Produce, Fence:
		return false
	default:
		return true
	}
}

// ReadsRa reports whether Ra is a source operand.
func (o Op) ReadsRa() bool {
	switch o {
	case Nop, Halt, MovI, B, Consume, Fence:
		return false
	default:
		return true
	}
}

// ReadsRb reports whether Rb is a source operand.
func (o Op) ReadsRb() bool {
	switch o {
	case Add, Sub, Mul, Div, And, Or, Xor, CmpEQ, CmpNE, CmpLT, Sel,
		FAdd, FSub, FMul, FDiv, St:
		return true
	default:
		return false
	}
}

// Instr is one decoded instruction.
type Instr struct {
	Op  Op
	Rd  Reg
	Ra  Reg
	Rb  Reg
	Imm int64 // immediate, displacement, or resolved branch target
	Q   int   // queue number for Produce/Consume

	// Comm marks communication/synchronization overhead instructions
	// (produce/consume themselves, and the software-queue sequences the
	// lowering pass emits). The ratio of dynamic Comm to application
	// instructions is the paper's Figure 8 metric, and overhead-only
	// issue cycles are attributed to the PostL2 bucket (the extra commit
	// bandwidth those instructions consume).
	Comm bool
}

// String disassembles the instruction.
func (in Instr) String() string {
	switch in.Op {
	case Nop, Halt, Fence:
		return in.Op.String()
	case MovI:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Rd, in.Imm)
	case Mov, I2F, F2I:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Rd, in.Ra)
	case AddI, AndI, ShlI, ShrI:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Ra, in.Imm)
	case Sel:
		return fmt.Sprintf("%s %s, %s, %s, %d", in.Op, in.Rd, in.Ra, in.Rb, in.Imm)
	case Ld:
		return fmt.Sprintf("ld %s, [%s+%d]", in.Rd, in.Ra, in.Imm)
	case St:
		return fmt.Sprintf("st [%s+%d], %s", in.Ra, in.Imm, in.Rb)
	case B:
		return fmt.Sprintf("b %d", in.Imm)
	case Beqz, Bnez:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Ra, in.Imm)
	case Produce:
		return fmt.Sprintf("produce q%d, %s", in.Q, in.Ra)
	case Consume:
		return fmt.Sprintf("consume %s, q%d", in.Rd, in.Q)
	default:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Ra, in.Rb)
	}
}

// Program is a sequence of instructions ready for execution.
type Program struct {
	Name   string
	Instrs []Instr
}

// String disassembles the whole program with instruction indices.
func (p *Program) String() string {
	s := fmt.Sprintf("; program %s (%d instrs)\n", p.Name, len(p.Instrs))
	for i, in := range p.Instrs {
		s += fmt.Sprintf("%4d: %s\n", i, in.String())
	}
	return s
}

// Validate checks branch targets and queue numbers, returning the first
// problem found.
func (p *Program) Validate(numQueues int) error {
	for i, in := range p.Instrs {
		if in.Op.IsBranch() && in.Op != Halt {
			if in.Imm < 0 || in.Imm >= int64(len(p.Instrs)) {
				return fmt.Errorf("%s: instr %d (%s): branch target %d out of range [0,%d)",
					p.Name, i, in, in.Imm, len(p.Instrs))
			}
		}
		if in.Op == Produce || in.Op == Consume {
			if in.Q < 0 || in.Q >= numQueues {
				return fmt.Errorf("%s: instr %d (%s): queue %d out of range [0,%d)",
					p.Name, i, in, in.Q, numQueues)
			}
		}
	}
	return nil
}

// CheckEnd rejects a program that can run past its last instruction: an
// empty one, or one whose last instruction is neither halt nor an
// unconditional branch. Validate bounds every branch target, so the last
// instruction is the only one control can fall through.
func (p *Program) CheckEnd() error {
	n := len(p.Instrs)
	if n == 0 {
		return fmt.Errorf("%s: empty program (end it with halt)", p.Name)
	}
	if last := p.Instrs[n-1]; last.Op != Halt && last.Op != B {
		return fmt.Errorf("%s: instr %d (%s) can run past the end (end the program with halt or b)",
			p.Name, n-1, last)
	}
	return nil
}
