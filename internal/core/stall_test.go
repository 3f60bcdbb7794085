package core

import (
	"strings"
	"testing"
	"unsafe"

	"hfstream/internal/asm"
	"hfstream/internal/isa"
	"hfstream/internal/stats"
	"hfstream/trace"
)

// checkStallInvariant asserts the accounting identity the observability
// layer promises: every cycle either issued or is charged to exactly one
// stall reason and one machine region.
func checkStallInvariant(t *testing.T, c *Core) {
	t.Helper()
	if got, want := c.Stalls.Total(), c.Cycles()-c.IssueCycles; got != want {
		t.Errorf("Stalls.Total() = %d, want Cycles()-IssueCycles = %d", got, want)
	}
	if bd := c.Breakdown(); bd.Total() != c.Cycles() {
		t.Errorf("Breakdown().Total() = %d, want Cycles() = %d", bd.Total(), c.Cycles())
	}
	if c.StallRegions.Total() != c.Stalls.Total() {
		t.Errorf("StallRegions total %d != Stalls total %d",
			c.StallRegions.Total(), c.Stalls.Total())
	}
}

func TestStallOperandCounted(t *testing.T) {
	// mul (3 cycles) feeding an add leaves zero-issue cycles charged to
	// operand latency.
	b := asm.NewBuilder("op")
	b.MovI(1, 2)
	b.Mul(2, 1, 1)
	b.Add(3, 2, 2)
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), newFakeMem(1), nil)
	run(t, c, 100)
	if c.Stalls[StallOperand] == 0 {
		t.Errorf("no operand-latency stalls recorded: %s", c.Stalls.Summary())
	}
	checkStallInvariant(t, c)
}

func TestStallTokenChargedToRegion(t *testing.T) {
	// A use blocked on a slow load is a memory-token stall charged to the
	// token's location (fakeMem tokens live in L2).
	m := newFakeMem(20)
	b := asm.NewBuilder("tok")
	b.MovI(1, 0x100)
	b.Ld(2, 1, 0)
	b.Add(3, 2, 2)
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), m, nil)
	run(t, c, 200)
	if c.Stalls[StallToken] == 0 {
		t.Errorf("no memory-token stalls recorded: %s", c.Stalls.Summary())
	}
	if c.StallRegions.Cycles[stats.L2] == 0 {
		t.Error("token stalls not charged to the L2 region")
	}
	checkStallInvariant(t, c)
}

func TestStallFUCounted(t *testing.T) {
	// With zero FP units an FP op can never issue; every cycle is an FU
	// conflict.
	p := DefaultParams()
	p.FUs[isa.FUFP] = 0
	b := asm.NewBuilder("fu")
	b.FAdd(1, 0, 0)
	b.Halt()
	c := New(0, p, b.MustProgram(), newFakeMem(1), nil)
	for cycle := uint64(1); cycle <= 5; cycle++ {
		c.Tick(cycle)
	}
	if c.Stalls[StallFU] != 5 {
		t.Errorf("fu-conflict stalls = %d, want 5: %s", c.Stalls[StallFU], c.Stalls.Summary())
	}
	checkStallInvariant(t, c)
}

func TestStallOzQFullCounted(t *testing.T) {
	m := newFakeMem(1)
	m.accepts = false
	b := asm.NewBuilder("ozq")
	b.MovI(1, 0x100)
	b.Ld(2, 1, 0)
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), m, nil)
	for cycle := uint64(1); cycle <= 10; cycle++ {
		c.Tick(cycle)
	}
	if c.Stalls[StallOzQFull] == 0 {
		t.Errorf("no ozq-full stalls recorded: %s", c.Stalls.Summary())
	}
	checkStallInvariant(t, c)
	m.accepts = true
	run(t, c, 100)
	checkStallInvariant(t, c)
}

func TestStallLoadLimitCounted(t *testing.T) {
	p := DefaultParams()
	p.MaxOutstandingLoads = 1
	m := newFakeMem(30)
	b := asm.NewBuilder("ll")
	b.MovI(1, 0x100)
	b.Ld(2, 1, 0)
	b.Ld(3, 1, 8)
	b.Halt()
	c := New(0, p, b.MustProgram(), m, nil)
	run(t, c, 400)
	if c.Stalls[StallLoadLimit] == 0 {
		t.Errorf("no load-limit stalls recorded: %s", c.Stalls.Summary())
	}
	checkStallInvariant(t, c)
}

func TestStallFenceCounted(t *testing.T) {
	// A fence that the memory port refuses is its own stall reason, not
	// ozq-full.
	m := newFakeMem(1)
	m.accepts = false
	b := asm.NewBuilder("fence")
	b.Fence()
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), m, nil)
	for cycle := uint64(1); cycle <= 6; cycle++ {
		c.Tick(cycle)
	}
	if c.Stalls[StallFence] != 6 {
		t.Errorf("fence stalls = %d, want 6: %s", c.Stalls[StallFence], c.Stalls.Summary())
	}
	if c.Stalls[StallOzQFull] != 0 {
		t.Error("fence stall misclassified as ozq-full")
	}
	checkStallInvariant(t, c)
	m.accepts = true
	run(t, c, 100)
	checkStallInvariant(t, c)
}

func TestStallQueueFullCounted(t *testing.T) {
	s := newFakeStream()
	s.reject = true
	b := asm.NewBuilder("qf")
	b.MovI(1, 5)
	b.Produce(0, 1)
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), newFakeMem(1), s)
	for cycle := uint64(1); cycle <= 8; cycle++ {
		c.Tick(cycle)
	}
	if c.Stalls[StallQueueFull] == 0 {
		t.Errorf("no queue-full stalls recorded: %s", c.Stalls.Summary())
	}
	checkStallInvariant(t, c)
	s.reject = false
	run(t, c, 100)
	if c.Produces != 1 {
		t.Errorf("Produces = %d, want 1", c.Produces)
	}
	checkStallInvariant(t, c)
}

func TestStallQueueEmptyCounted(t *testing.T) {
	s := newFakeStream()
	b := asm.NewBuilder("qe")
	b.Consume(1, 0)
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), newFakeMem(1), s)
	for cycle := uint64(1); cycle <= 8; cycle++ {
		c.Tick(cycle)
	}
	if c.Stalls[StallQueueEmpty] != 8 {
		t.Errorf("queue-empty stalls = %d, want 8: %s", c.Stalls[StallQueueEmpty], c.Stalls.Summary())
	}
	checkStallInvariant(t, c)
	s.queues[0] = append(s.queues[0], 5)
	run(t, c, 100)
	if c.Consumes != 1 {
		t.Errorf("Consumes = %d, want 1", c.Consumes)
	}
	checkStallInvariant(t, c)
}

func TestStallWAWCounted(t *testing.T) {
	m := newFakeMem(30)
	b := asm.NewBuilder("waw")
	b.MovI(1, 0x100)
	b.Ld(2, 1, 0)
	b.MovI(2, 7)
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), m, nil)
	run(t, c, 200)
	if c.Stalls[StallWAW] == 0 {
		t.Errorf("no waw-hazard stalls recorded: %s", c.Stalls.Summary())
	}
	checkStallInvariant(t, c)
}

func TestStallHaltedDrainCounted(t *testing.T) {
	// Cycles between halt and the last store draining are charged to
	// StallHalted and to the store's region.
	m := newFakeMem(40)
	b := asm.NewBuilder("drain")
	b.MovI(1, 0x100)
	b.St(1, 0, 1)
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), m, nil)
	run(t, c, 200)
	if c.Stalls[StallHalted] == 0 {
		t.Errorf("no halted-drain stalls recorded: %s", c.Stalls.Summary())
	}
	if c.StallRegions.Cycles[stats.L2] == 0 {
		t.Error("drain stalls not charged to the store token's region")
	}
	checkStallInvariant(t, c)
}

func TestStallSummary(t *testing.T) {
	var s StallCycles
	if got := s.Summary(); got != "none" {
		t.Errorf("empty summary = %q", got)
	}
	s[StallOperand] = 3
	s[StallQueueEmpty] = 4
	want := "operand-latency=3 queue-empty=4 total=7"
	if got := s.Summary(); got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
	if s.Total() != 7 {
		t.Errorf("total = %d", s.Total())
	}
}

func TestTracerCoalescesStallRuns(t *testing.T) {
	s := newFakeStream()
	b := asm.NewBuilder("trace")
	b.Consume(1, 0)
	b.Halt()
	c := New(0, DefaultParams(), b.MustProgram(), newFakeMem(1), s)
	c.Tracer = trace.NewBuffer(64)
	for cycle := uint64(1); cycle <= 5; cycle++ {
		c.Tick(cycle)
	}
	s.queues[0] = append(s.queues[0], 9)
	end := uint64(0)
	for cycle := uint64(6); cycle <= 100; cycle++ {
		c.Tick(cycle)
		if c.Done(cycle) {
			end = cycle
			break
		}
	}
	if end == 0 {
		t.Fatal("core did not finish")
	}
	c.FinishTrace(end + 1)

	var stalls, queueOps int
	for _, e := range c.Tracer.Events() {
		switch e.Kind {
		case trace.KindStall:
			stalls++
			if e.Op != StallQueueEmpty.String() {
				t.Errorf("stall event op = %q", e.Op)
			}
			if e.Cycle != 1 || e.Dur != 5 {
				t.Errorf("stall run = [%d, +%d), want [1, +5)", e.Cycle, e.Dur)
			}
		case trace.KindQueueOp:
			queueOps++
			if e.Q != 0 || e.Op != "consume" {
				t.Errorf("queue op event = %+v", e)
			}
		}
	}
	if stalls != 1 {
		t.Errorf("got %d stall events, want 1 coalesced run", stalls)
	}
	if queueOps != 1 {
		t.Errorf("got %d queue-op events, want 1", queueOps)
	}
}

// A Core and its 8-byte allocation header fill the 2 048-byte size class;
// one more word would move every core into the 2 304-byte one.
func TestCoreSize(t *testing.T) {
	if size := unsafe.Sizeof(Core{}); size > 2040 {
		t.Errorf("Core is %d bytes, want at most 2040", size)
	}
}

// traceNames.ops has a slot for every opcode: the one past it has no
// mnemonic.
func TestTraceNamesCoverEveryOp(t *testing.T) {
	if s := isa.Op(numOps).String(); !strings.HasPrefix(s, "op(") {
		t.Errorf("opcode %d is %q, past numOps = %d", numOps, s, numOps)
	}
}

// The names a core records are resolved against the buffer it traces into
// now: a core handed a second buffer, whose IDs differ from the first's,
// resolves them again.
func TestTracerSwapResolvesNames(t *testing.T) {
	b := asm.NewBuilder("swap")
	b.Ld(2, 0, 64)
	b.AddI(3, 2, 1)
	b.Halt()
	c := New(3, DefaultParams(), b.MustProgram(), newFakeMem(5), nil)
	first, second := trace.NewBuffer(64), trace.NewBuffer(64)
	second.Name("taken")
	c.Tracer = first
	c.Tick(1)
	c.Tracer = second
	cycle := uint64(2)
	for ; !c.Done(cycle); cycle++ {
		c.Tick(cycle)
	}
	c.FinishTrace(cycle)
	for _, tc := range []struct {
		buf  *trace.Buffer
		want string
	}{
		{first, "ld"},
		{second, "writeback addi halt memory-token"},
	} {
		var ops []string
		for _, e := range tc.buf.Events() {
			if e.Core != 3 {
				t.Errorf("event %+v: core %d, want 3", e, e.Core)
			}
			ops = append(ops, e.Op)
		}
		if got := strings.Join(ops, " "); got != tc.want {
			t.Errorf("ops %q, want %q", got, tc.want)
		}
	}
}
