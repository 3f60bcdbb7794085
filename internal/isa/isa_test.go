package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func allOps() []Op {
	ops := []Op{}
	for o := Op(0); o < numOps; o++ {
		ops = append(ops, o)
	}
	return ops
}

func TestOpMetadataTotal(t *testing.T) {
	for _, o := range allOps() {
		if o.String() == "" || strings.HasPrefix(o.String(), "op(") {
			t.Errorf("opcode %d has no mnemonic", int(o))
		}
		if o.Latency() < 1 && o != Nop {
			t.Errorf("%v: latency %d < 1", o, o.Latency())
		}
		if fu := o.FU(); fu < 0 || fu >= NumFUs {
			t.Errorf("%v: bad FU %v", o, fu)
		}
	}
}

func TestFUClasses(t *testing.T) {
	cases := map[Op]FU{
		Add: FUALU, MovI: FUALU, CmpLT: FUALU, Sel: FUALU,
		FAdd: FUFP, FDiv: FUFP, I2F: FUFP,
		Ld: FUMem, St: FUMem, Produce: FUMem, Consume: FUMem, Fence: FUMem,
		B: FUBranch, Beqz: FUBranch, Bnez: FUBranch, Halt: FUBranch,
	}
	for op, want := range cases {
		if got := op.FU(); got != want {
			t.Errorf("%v.FU() = %v, want %v", op, got, want)
		}
	}
}

func TestLatencies(t *testing.T) {
	if Mul.Latency() <= Add.Latency() {
		t.Error("multiply should be slower than add")
	}
	if FDiv.Latency() <= FMul.Latency() {
		t.Error("FP divide should be slower than FP multiply")
	}
	if Div.Latency() <= Mul.Latency() {
		t.Error("divide should be slower than multiply")
	}
}

func TestOperandMetadata(t *testing.T) {
	if !Add.WritesRd() || St.WritesRd() || Produce.WritesRd() {
		t.Error("WritesRd wrong for Add/St/Produce")
	}
	if !Consume.WritesRd() || !Ld.WritesRd() {
		t.Error("WritesRd wrong for Consume/Ld")
	}
	if MovI.ReadsRa() || !Mov.ReadsRa() || !Beqz.ReadsRa() {
		t.Error("ReadsRa wrong")
	}
	if !St.ReadsRb() || Ld.ReadsRb() || AddI.ReadsRb() {
		t.Error("ReadsRb wrong")
	}
	if !B.IsBranch() || !Beqz.IsBranch() || Add.IsBranch() {
		t.Error("IsBranch wrong")
	}
	if Fence.FU() != FUMem || Produce.FU() != FUMem || Add.FU() == FUMem {
		t.Error("streaming primitives and fences occupy memory issue slots; ALU ops do not")
	}
}

func TestEvalBasics(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		imm  int64
		want uint64
	}{
		{Add, 3, 4, 0, 7},
		{AddI, 3, 0, 4, 7},
		{Sub, 10, 4, 0, 6},
		{Mul, 6, 7, 0, 42},
		{Div, 42, 7, 0, 6},
		{Div, 42, 0, 0, 0},                  // divide by zero defined as 0
		{Div, ^uint64(0), 1, 0, ^uint64(0)}, // -1 / 1 = -1
		{And, 0b1100, 0b1010, 0, 0b1000},
		{AndI, 0xff, 0, 0x0f, 0x0f},
		{Or, 0b1100, 0b1010, 0, 0b1110},
		{Xor, 0b1100, 0b1010, 0, 0b0110},
		{ShlI, 1, 0, 4, 16},
		{ShrI, 16, 0, 4, 1},
		{CmpEQ, 5, 5, 0, 1},
		{CmpEQ, 5, 6, 0, 0},
		{CmpNE, 5, 6, 0, 1},
		{CmpLT, ^uint64(0), 0, 0, 1}, // -1 < 0 signed
		{CmpLT, 0, ^uint64(0), 0, 0},
		{Sel, 42, 1, 7, 42},
		{Sel, 42, 0, 7, 7},
		{MovI, 0, 0, -5, ^uint64(4)}, // two's complement -5
		{Mov, 99, 0, 0, 99},
	}
	for _, c := range cases {
		if got := Eval(c.op, c.a, c.b, c.imm); got != c.want {
			t.Errorf("Eval(%v, %d, %d, %d) = %d, want %d", c.op, c.a, c.b, c.imm, got, c.want)
		}
	}
}

func TestEvalFloat(t *testing.T) {
	f := func(x float64) uint64 { return Eval(I2F, uint64(int64(x)), 0, 0) }
	two := f(2)
	three := f(3)
	if got := Eval(FAdd, two, three, 0); got != f(5) {
		t.Errorf("2.0+3.0 wrong")
	}
	if got := Eval(FMul, two, three, 0); got != f(6) {
		t.Errorf("2.0*3.0 wrong")
	}
	if got := Eval(FSub, three, two, 0); got != f(1) {
		t.Errorf("3.0-2.0 wrong")
	}
	if got := Eval(FDiv, f(6), two, 0); got != three {
		t.Errorf("6.0/2.0 wrong")
	}
	if got := Eval(F2I, f(7), 0, 0); got != 7 {
		t.Errorf("F2I(7.0) = %d", got)
	}
}

// Property: integer add/sub and xor are inverses.
func TestEvalInverseProperties(t *testing.T) {
	addSub := func(a, b uint64) bool {
		return Eval(Sub, Eval(Add, a, b, 0), b, 0) == a
	}
	if err := quick.Check(addSub, nil); err != nil {
		t.Error(err)
	}
	xorTwice := func(a, b uint64) bool {
		return Eval(Xor, Eval(Xor, a, b, 0), b, 0) == a
	}
	if err := quick.Check(xorTwice, nil); err != nil {
		t.Error(err)
	}
	cmpTrichotomy := func(a, b uint64) bool {
		lt := Eval(CmpLT, a, b, 0)
		gt := Eval(CmpLT, b, a, 0)
		eq := Eval(CmpEQ, a, b, 0)
		return lt+gt+eq == 1
	}
	if err := quick.Check(cmpTrichotomy, nil); err != nil {
		t.Error(err)
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: Nop}, "nop"},
		{Instr{Op: MovI, Rd: 1, Imm: 42}, "movi r1, 42"},
		{Instr{Op: Add, Rd: 1, Ra: 2, Rb: 3}, "add r1, r2, r3"},
		{Instr{Op: Ld, Rd: 4, Ra: 5, Imm: 8}, "ld r4, [r5+8]"},
		{Instr{Op: St, Ra: 5, Imm: 8, Rb: 4}, "st [r5+8], r4"},
		{Instr{Op: Produce, Q: 3, Ra: 7}, "produce q3, r7"},
		{Instr{Op: Consume, Rd: 7, Q: 3}, "consume r7, q3"},
		{Instr{Op: Beqz, Ra: 1, Imm: 10}, "beqz r1, 10"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestProgramValidate(t *testing.T) {
	good := &Program{Name: "good", Instrs: []Instr{
		{Op: MovI, Rd: 1, Imm: 1},
		{Op: Beqz, Ra: 1, Imm: 0},
		{Op: Produce, Q: 3, Ra: 1},
		{Op: Halt},
	}}
	if err := good.Validate(64); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
	badBranch := &Program{Name: "bad", Instrs: []Instr{{Op: B, Imm: 5}}}
	if err := badBranch.Validate(64); err == nil {
		t.Error("out-of-range branch accepted")
	}
	badQueue := &Program{Name: "bad", Instrs: []Instr{{Op: Produce, Q: 99}}}
	if err := badQueue.Validate(64); err == nil {
		t.Error("out-of-range queue accepted")
	}
	negQueue := &Program{Name: "bad", Instrs: []Instr{{Op: Consume, Q: -1}}}
	if err := negQueue.Validate(64); err == nil {
		t.Error("negative queue accepted")
	}
}

func TestProgramString(t *testing.T) {
	p := &Program{Name: "demo", Instrs: []Instr{{Op: Halt}}}
	s := p.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "halt") {
		t.Errorf("listing missing content: %q", s)
	}
}
