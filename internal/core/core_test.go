package core

import (
	"testing"
	"testing/quick"

	"hfstream/internal/asm"
	"hfstream/internal/isa"
	"hfstream/internal/port"
	"hfstream/internal/stats"
)

// fakeMem is an ideal memory: fixed-latency loads/stores against a map.
type fakeMem struct {
	data    map[uint64]uint64
	latency uint64
	accepts bool
	loads   int
	stores  int
	pending []*port.Token
}

func newFakeMem(latency uint64) *fakeMem {
	return &fakeMem{data: map[uint64]uint64{}, latency: latency, accepts: true}
}

func (f *fakeMem) CanAccept() bool { return f.accepts }

func (f *fakeMem) Load(cycle, addr uint64) *port.Token {
	f.loads++
	tok := port.NewToken(stats.L2)
	tok.Complete(cycle+f.latency, f.data[addr&^7])
	return tok
}

func (f *fakeMem) Store(cycle, addr, val uint64) *port.Token {
	f.stores++
	f.data[addr&^7] = val
	tok := port.NewToken(stats.L2)
	tok.Complete(cycle+f.latency, val)
	return tok
}

func (f *fakeMem) Fence(cycle uint64) *port.Token {
	tok := port.NewToken(stats.L2)
	tok.Complete(cycle+1, 0)
	return tok
}

// fakeStream is an unbounded queue device with optional rejection.
type fakeStream struct {
	queues map[int][]uint64
	reject bool
}

func newFakeStream() *fakeStream { return &fakeStream{queues: map[int][]uint64{}} }

func (f *fakeStream) Produce(cycle uint64, q int, v uint64) (*port.Token, bool) {
	if f.reject {
		return nil, false
	}
	f.queues[q] = append(f.queues[q], v)
	tok := port.NewToken(stats.PreL2)
	tok.Complete(cycle+1, v)
	return tok, true
}

func (f *fakeStream) Consume(cycle uint64, q int) (*port.Token, bool) {
	if f.reject || len(f.queues[q]) == 0 {
		return nil, false
	}
	v := f.queues[q][0]
	f.queues[q] = f.queues[q][1:]
	tok := port.NewToken(stats.PreL2)
	tok.Complete(cycle+1, v)
	return tok, true
}

func run(t *testing.T, c *Core, maxCycles uint64) uint64 {
	t.Helper()
	for cycle := uint64(1); cycle <= maxCycles; cycle++ {
		c.Tick(cycle)
		if c.Done(cycle) {
			return cycle
		}
	}
	t.Fatalf("core did not finish in %d cycles (pc=%d stall=%v)", maxCycles, c.PC(), c.LastStall)
	return 0
}

func TestStraightLineALU(t *testing.T) {
	b := asm.NewBuilder("alu")
	b.MovI(1, 6)
	b.MovI(2, 7)
	b.Mul(3, 1, 2)
	b.AddI(4, 3, 100)
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), newFakeMem(1), nil)
	run(t, c, 100)
	if got := c.Reg(4); got != 142 {
		t.Errorf("r4 = %d, want 142", got)
	}
}

func TestDependenceLatency(t *testing.T) {
	// mul (3 cycles) feeding an add: the add must wait.
	b := asm.NewBuilder("dep")
	b.MovI(1, 2)
	b.Mul(2, 1, 1)
	b.Add(3, 2, 2)
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), newFakeMem(1), nil)
	end := run(t, c, 100)
	// movi+mul issue cycle 1 (independent? mul needs r1 ready at cycle 2).
	// Lower bound: mul at 2, result at 5, add at 5, halt at 5 or later.
	if end < 4 {
		t.Errorf("finished at %d, too fast for a 3-cycle multiply chain", end)
	}
	if c.Reg(3) != 8 {
		t.Errorf("r3 = %d", c.Reg(3))
	}
}

func TestIssueWidthBound(t *testing.T) {
	// 12 independent ALU ops on a 6-wide machine need >= 2 busy cycles.
	b := asm.NewBuilder("width")
	for i := 1; i <= 12; i++ {
		b.MovI(isa.Reg(i), int64(i))
	}
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), newFakeMem(1), nil)
	end := run(t, c, 100)
	if end < 2 {
		t.Errorf("12 instructions finished in %d cycles on a 6-wide core", end)
	}
	if c.Issued != 13 {
		t.Errorf("issued %d, want 13", c.Issued)
	}
}

func TestFPFUBound(t *testing.T) {
	// 8 independent FP adds with 2 FP units need >= 4 issue cycles.
	b := asm.NewBuilder("fp")
	for i := 1; i <= 8; i++ {
		b.FAdd(isa.Reg(i), 0, 0)
	}
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), newFakeMem(1), nil)
	end := run(t, c, 100)
	if end < 4 {
		t.Errorf("8 FP ops finished in %d cycles with 2 FP units", end)
	}
}

func TestBranchLoop(t *testing.T) {
	b := asm.NewBuilder("loop")
	b.MovI(1, 10)
	b.MovI(2, 0)
	b.Label("top")
	b.Add(2, 2, 1)
	b.AddI(1, 1, -1)
	b.Bnez(1, "top")
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), newFakeMem(1), nil)
	run(t, c, 1000)
	if c.Reg(2) != 55 {
		t.Errorf("sum = %d, want 55", c.Reg(2))
	}
}

func TestLoadStore(t *testing.T) {
	m := newFakeMem(3)
	m.data[0x100] = 17
	b := asm.NewBuilder("mem")
	b.MovI(1, 0x100)
	b.Ld(2, 1, 0)
	b.AddI(3, 2, 1)
	b.St(1, 8, 3)
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), m, nil)
	run(t, c, 100)
	if m.data[0x108] != 18 {
		t.Errorf("store result %d, want 18", m.data[0x108])
	}
	if m.loads != 1 || m.stores != 1 {
		t.Errorf("loads=%d stores=%d", m.loads, m.stores)
	}
}

func TestOzQBackpressure(t *testing.T) {
	m := newFakeMem(1)
	m.accepts = false
	b := asm.NewBuilder("bp")
	b.MovI(1, 0x100)
	b.Ld(2, 1, 0)
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), m, nil)
	for cycle := uint64(1); cycle <= 10; cycle++ {
		c.Tick(cycle)
	}
	if c.Halted() {
		t.Fatal("core should be stuck behind the full OzQ")
	}
	if c.LastStall != StallOzQFull {
		t.Errorf("stall = %v, want %v", c.LastStall, StallOzQFull)
	}
	m.accepts = true
	run(t, c, 100)
}

func TestLoadLimit(t *testing.T) {
	p := DefaultParams()
	p.MaxOutstandingLoads = 2
	m := newFakeMem(50) // slow loads pile up
	b := asm.NewBuilder("ll")
	b.MovI(1, 0x100)
	for i := 2; i <= 6; i++ {
		b.Ld(isa.Reg(i), 1, int64(i*8))
	}
	b.Halt()
	c := New(0, p, b.MustProgram(), m, nil)
	hitLimit := false
	for cycle := uint64(1); cycle <= 400; cycle++ {
		c.Tick(cycle)
		if c.LastStall == StallLoadLimit {
			hitLimit = true
		}
		if c.Done(cycle) {
			break
		}
	}
	if !hitLimit {
		t.Error("never hit the outstanding-load limit")
	}
}

func TestProduceConsumeRoundTrip(t *testing.T) {
	s := newFakeStream()
	b := asm.NewBuilder("pc")
	b.MovI(1, 41)
	b.Produce(2, 1)
	b.Consume(3, 2)
	b.AddI(4, 3, 1)
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), newFakeMem(1), s)
	run(t, c, 100)
	if c.Reg(4) != 42 {
		t.Errorf("r4 = %d", c.Reg(4))
	}
	if c.IssuedComm != 2 {
		t.Errorf("comm issued = %d, want 2", c.IssuedComm)
	}
}

func TestConsumeEmptyStalls(t *testing.T) {
	s := newFakeStream()
	b := asm.NewBuilder("empty")
	b.Consume(1, 0)
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), newFakeMem(1), s)
	for cycle := uint64(1); cycle <= 5; cycle++ {
		c.Tick(cycle)
	}
	if c.LastStall != StallQueueEmpty {
		t.Errorf("stall = %v", c.LastStall)
	}
	s.queues[0] = append(s.queues[0], 5)
	run(t, c, 100)
	if c.Reg(1) != 5 {
		t.Errorf("r1 = %d", c.Reg(1))
	}
}

func TestBreakdownSumsToCycles(t *testing.T) {
	m := newFakeMem(5)
	b := asm.NewBuilder("bd")
	b.MovI(1, 0x100)
	b.MovI(4, 20)
	b.Label("top")
	b.Ld(2, 1, 0)
	b.Add(3, 3, 2)
	b.AddI(4, 4, -1)
	b.Bnez(4, "top")
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), m, nil)
	// A cycle is active when the core has not yet halted and drained at
	// its start; Tick counts exactly those.
	var active uint64
	for cycle := uint64(1); !c.Done(cycle - 1); cycle++ {
		if cycle > 10000 {
			t.Fatal("core did not finish")
		}
		if !c.Done(cycle) {
			active++
		}
		c.Tick(cycle)
	}
	if c.Cycles() != active {
		t.Errorf("cycles %d != %d active ticks", c.Cycles(), active)
	}
	if bd := c.Breakdown(); bd.Total() != c.Cycles() {
		t.Errorf("breakdown total %d != cycles %d", bd.Total(), c.Cycles())
	}
}

func TestCommOnlyCyclesArePostL2(t *testing.T) {
	// A program that issues only comm-tagged instructions accumulates
	// PostL2 busy cycles.
	b := asm.NewBuilder("comm")
	b.BeginComm()
	for i := 0; i < 12; i++ {
		b.AddI(1, 1, 1)
	}
	b.EndComm()
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), newFakeMem(1), nil)
	run(t, c, 100)
	if c.CommIssueCycles == 0 {
		t.Error("expected comm-only issue cycles")
	}
	// Every issue cycle of a comm-only program is comm-only (halt issues
	// alone in the last one), and PostL2 holds those and no stall.
	if c.CommIssueCycles != c.IssueCycles {
		t.Errorf("CommIssueCycles = %d, want IssueCycles = %d", c.CommIssueCycles, c.IssueCycles)
	}
	issueShare := c.Breakdown().Cycles[stats.PostL2] - c.StallRegions.Cycles[stats.PostL2]
	if c.CommIssueCycles != issueShare {
		t.Errorf("CommIssueCycles = %d, PostL2 issue share = %d", c.CommIssueCycles, issueShare)
	}
}

// Property: the core's ALU semantics agree with isa.Eval for random
// operand values across every two-source integer opcode.
func TestExecMatchesEvalProperty(t *testing.T) {
	ops := []isa.Op{isa.Add, isa.Sub, isa.Mul, isa.Div, isa.And, isa.Or,
		isa.Xor, isa.CmpEQ, isa.CmpNE, isa.CmpLT, isa.FAdd, isa.FMul}
	f := func(opIdx uint8, a, b uint64) bool {
		op := ops[int(opIdx)%len(ops)]
		bl := asm.NewBuilder("p")
		bl.Emit(isa.Instr{Op: op, Rd: 3, Ra: 1, Rb: 2})
		bl.Halt()
		c := New(0, DefaultParams(), bl.MustProgram(), newFakeMem(1), nil)
		c.SetReg(1, a)
		c.SetReg(2, b)
		for cycle := uint64(1); cycle < 50; cycle++ {
			c.Tick(cycle)
			if c.Done(cycle) {
				break
			}
		}
		return c.Reg(3) == isa.Eval(op, a, b, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWAWStall(t *testing.T) {
	// A slow load into r2 followed by an ALU write of r2 must not let the
	// stale load overwrite the newer value.
	m := newFakeMem(30)
	b := asm.NewBuilder("waw")
	b.MovI(1, 0x100)
	b.Ld(2, 1, 0)
	b.MovI(2, 7) // WAW on r2
	b.Halt()
	m.data[0x100] = 99
	c := New(0, DefaultParams(), b.MustProgram(), m, nil)
	run(t, c, 200)
	if c.Reg(2) != 7 {
		t.Errorf("r2 = %d, want 7 (WAW hazard mishandled)", c.Reg(2))
	}
}
