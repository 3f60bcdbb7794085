// Package asm provides a programmatic builder and a text assembler for
// isa.Program values. Workload kernels and the DSWP code generator use the
// builder; tests and custom kernels use the text form.
package asm

import (
	"fmt"

	"hfstream/internal/isa"
)

// Builder assembles a program instruction by instruction with symbolic
// labels for branch targets.
type Builder struct {
	name    string
	instrs  []isa.Instr
	labels  map[string]int
	fixups  []fixup
	errs    []error
	nextTmp int
	tagComm bool
}

type fixup struct {
	index int
	label string
}

// NewBuilder returns an empty builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]int)}
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.instrs) }

// Label binds name to the next instruction's index.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("asm: duplicate label %q", name))
		return
	}
	b.labels[name] = len(b.instrs)
}

// FreshLabel returns a unique label name with the given prefix.
func (b *Builder) FreshLabel(prefix string) string {
	b.nextTmp++
	return fmt.Sprintf(".%s%d", prefix, b.nextTmp)
}

// Emit appends a raw instruction, applying the current comm-overhead tag.
func (b *Builder) Emit(in isa.Instr) {
	if b.tagComm || in.Op == isa.Produce || in.Op == isa.Consume || in.Op == isa.Fence {
		in.Comm = true
	}
	b.instrs = append(b.instrs, in)
}

// BeginComm starts tagging emitted instructions as communication overhead
// (software-queue synchronization, data transfer and stream-address
// update sequences). Produce, consume and fence are always tagged.
func (b *Builder) BeginComm() { b.tagComm = true }

// EndComm stops the communication-overhead tagging started by BeginComm.
func (b *Builder) EndComm() { b.tagComm = false }

func (b *Builder) branch(op isa.Op, ra isa.Reg, label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.instrs), label: label})
	b.instrs = append(b.instrs, isa.Instr{Op: op, Ra: ra})
}

// Nop emits a nop.
func (b *Builder) Nop() { b.Emit(isa.Instr{Op: isa.Nop}) }

// Halt emits a halt.
func (b *Builder) Halt() { b.Emit(isa.Instr{Op: isa.Halt}) }

// MovI emits rd = imm.
func (b *Builder) MovI(rd isa.Reg, imm int64) {
	b.Emit(isa.Instr{Op: isa.MovI, Rd: rd, Imm: imm})
}

// Mov emits rd = ra.
func (b *Builder) Mov(rd, ra isa.Reg) { b.Emit(isa.Instr{Op: isa.Mov, Rd: rd, Ra: ra}) }

// Add emits rd = ra + rb.
func (b *Builder) Add(rd, ra, rb isa.Reg) {
	b.Emit(isa.Instr{Op: isa.Add, Rd: rd, Ra: ra, Rb: rb})
}

// AddI emits rd = ra + imm.
func (b *Builder) AddI(rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Instr{Op: isa.AddI, Rd: rd, Ra: ra, Imm: imm})
}

// Sub emits rd = ra - rb.
func (b *Builder) Sub(rd, ra, rb isa.Reg) {
	b.Emit(isa.Instr{Op: isa.Sub, Rd: rd, Ra: ra, Rb: rb})
}

// Mul emits rd = ra * rb.
func (b *Builder) Mul(rd, ra, rb isa.Reg) {
	b.Emit(isa.Instr{Op: isa.Mul, Rd: rd, Ra: ra, Rb: rb})
}

// Div emits rd = ra / rb.
func (b *Builder) Div(rd, ra, rb isa.Reg) {
	b.Emit(isa.Instr{Op: isa.Div, Rd: rd, Ra: ra, Rb: rb})
}

// And emits rd = ra & rb.
func (b *Builder) And(rd, ra, rb isa.Reg) {
	b.Emit(isa.Instr{Op: isa.And, Rd: rd, Ra: ra, Rb: rb})
}

// AndI emits rd = ra & imm.
func (b *Builder) AndI(rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Instr{Op: isa.AndI, Rd: rd, Ra: ra, Imm: imm})
}

// Or emits rd = ra | rb.
func (b *Builder) Or(rd, ra, rb isa.Reg) {
	b.Emit(isa.Instr{Op: isa.Or, Rd: rd, Ra: ra, Rb: rb})
}

// Xor emits rd = ra ^ rb.
func (b *Builder) Xor(rd, ra, rb isa.Reg) {
	b.Emit(isa.Instr{Op: isa.Xor, Rd: rd, Ra: ra, Rb: rb})
}

// ShlI emits rd = ra << imm.
func (b *Builder) ShlI(rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Instr{Op: isa.ShlI, Rd: rd, Ra: ra, Imm: imm})
}

// ShrI emits rd = ra >> imm.
func (b *Builder) ShrI(rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Instr{Op: isa.ShrI, Rd: rd, Ra: ra, Imm: imm})
}

// CmpEQ emits rd = (ra == rb).
func (b *Builder) CmpEQ(rd, ra, rb isa.Reg) {
	b.Emit(isa.Instr{Op: isa.CmpEQ, Rd: rd, Ra: ra, Rb: rb})
}

// CmpNE emits rd = (ra != rb).
func (b *Builder) CmpNE(rd, ra, rb isa.Reg) {
	b.Emit(isa.Instr{Op: isa.CmpNE, Rd: rd, Ra: ra, Rb: rb})
}

// CmpLT emits rd = (ra < rb), signed.
func (b *Builder) CmpLT(rd, ra, rb isa.Reg) {
	b.Emit(isa.Instr{Op: isa.CmpLT, Rd: rd, Ra: ra, Rb: rb})
}

// FAdd emits rd = ra + rb (float64).
func (b *Builder) FAdd(rd, ra, rb isa.Reg) {
	b.Emit(isa.Instr{Op: isa.FAdd, Rd: rd, Ra: ra, Rb: rb})
}

// FSub emits rd = ra - rb (float64).
func (b *Builder) FSub(rd, ra, rb isa.Reg) {
	b.Emit(isa.Instr{Op: isa.FSub, Rd: rd, Ra: ra, Rb: rb})
}

// FMul emits rd = ra * rb (float64).
func (b *Builder) FMul(rd, ra, rb isa.Reg) {
	b.Emit(isa.Instr{Op: isa.FMul, Rd: rd, Ra: ra, Rb: rb})
}

// FDiv emits rd = ra / rb (float64).
func (b *Builder) FDiv(rd, ra, rb isa.Reg) {
	b.Emit(isa.Instr{Op: isa.FDiv, Rd: rd, Ra: ra, Rb: rb})
}

// I2F emits rd = float64(int64(ra)).
func (b *Builder) I2F(rd, ra isa.Reg) { b.Emit(isa.Instr{Op: isa.I2F, Rd: rd, Ra: ra}) }

// F2I emits rd = int64(float64(ra)).
func (b *Builder) F2I(rd, ra isa.Reg) { b.Emit(isa.Instr{Op: isa.F2I, Rd: rd, Ra: ra}) }

// Ld emits rd = mem[ra+imm].
func (b *Builder) Ld(rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Instr{Op: isa.Ld, Rd: rd, Ra: ra, Imm: imm})
}

// St emits mem[ra+imm] = rb.
func (b *Builder) St(ra isa.Reg, imm int64, rb isa.Reg) {
	b.Emit(isa.Instr{Op: isa.St, Ra: ra, Imm: imm, Rb: rb})
}

// B emits an unconditional branch to label.
func (b *Builder) B(label string) { b.branch(isa.B, 0, label) }

// Beqz emits a branch to label if ra == 0.
func (b *Builder) Beqz(ra isa.Reg, label string) { b.branch(isa.Beqz, ra, label) }

// Bnez emits a branch to label if ra != 0.
func (b *Builder) Bnez(ra isa.Reg, label string) { b.branch(isa.Bnez, ra, label) }

// Produce emits queue q <- ra.
func (b *Builder) Produce(q int, ra isa.Reg) {
	b.Emit(isa.Instr{Op: isa.Produce, Q: q, Ra: ra})
}

// Consume emits rd <- queue q.
func (b *Builder) Consume(rd isa.Reg, q int) {
	b.Emit(isa.Instr{Op: isa.Consume, Rd: rd, Q: q})
}

// Fence emits a full memory barrier.
func (b *Builder) Fence() { b.Emit(isa.Instr{Op: isa.Fence}) }

// Program resolves labels and returns the assembled program.
func (b *Builder) Program() (*isa.Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q in %s", f.label, b.name)
		}
		b.instrs[f.index].Imm = int64(target)
	}
	p := &isa.Program{Name: b.name, Instrs: append([]isa.Instr(nil), b.instrs...)}
	return p, nil
}

// MustProgram is Program but panics on error; for use in tests and
// statically-known-correct generators.
func (b *Builder) MustProgram() *isa.Program {
	p, err := b.Program()
	if err != nil {
		panic(err)
	}
	return p
}
