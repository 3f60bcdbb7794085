package lower

import (
	"testing"

	"hfstream/internal/asm"
	"hfstream/internal/interp"
	"hfstream/internal/isa"
	"hfstream/internal/mem"
	"hfstream/internal/queue"
)

func layout() queue.Layout {
	return queue.Layout{NumQueues: 64, Depth: 32, QLU: 8, LineBytes: 128}
}

func pipelinePair(n int64) (*isa.Program, *isa.Program) {
	b := asm.NewBuilder("prod")
	b.MovI(1, 1)
	b.MovI(2, n)
	b.Label("loop")
	b.Produce(0, 1)
	b.AddI(1, 1, 1)
	b.CmpLT(4, 2, 1)
	b.Beqz(4, "loop")
	b.MovI(5, 0)
	b.Produce(0, 5)
	b.Halt()
	prod := b.MustProgram()

	c := asm.NewBuilder("cons")
	c.MovI(1, 0)
	c.MovI(2, 0x8000)
	c.Label("loop")
	c.Consume(3, 0)
	c.Beqz(3, "done")
	c.Add(1, 1, 3)
	c.B("loop")
	c.Label("done")
	c.St(2, 0, 1)
	c.Halt()
	return prod, c.MustProgram()
}

func TestLowerRemovesStreamOps(t *testing.T) {
	prod, cons := pipelinePair(100)
	for _, p := range []*isa.Program{prod, cons} {
		lp, err := Lower(p, layout())
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range lp.Instrs {
			if in.Op == isa.Produce || in.Op == isa.Consume {
				t.Fatalf("%s still contains %v", lp.Name, in)
			}
		}
		if len(lp.Instrs) <= len(p.Instrs) {
			t.Error("lowered program should be longer")
		}
	}
}

func TestLowerPreservesSemantics(t *testing.T) {
	const n = 100
	prod, cons := pipelinePair(n)
	lp, err := Lower(prod, layout())
	if err != nil {
		t.Fatal(err)
	}
	lc, err := Lower(cons, layout())
	if err != nil {
		t.Fatal(err)
	}
	img := mem.New()
	m := interp.New(img, lp, lc)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	want := uint64(n * (n + 1) / 2)
	if got := img.Read8(0x8000); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestLowerCommTagging(t *testing.T) {
	prod, _ := pipelinePair(10)
	lp, err := Lower(prod, layout())
	if err != nil {
		t.Fatal(err)
	}
	comm := 0
	for _, in := range lp.Instrs {
		if in.Comm {
			comm++
		}
	}
	// 2 produce sites x the 12-instruction sequence emitProduce documents
	// + 2 prologue movi per queue.
	want := 2*12 + 2
	if comm != want {
		t.Errorf("comm-tagged instrs = %d, want %d", comm, want)
	}
}

func TestLowerBranchRemap(t *testing.T) {
	prod, _ := pipelinePair(10)
	lp, err := Lower(prod, layout())
	if err != nil {
		t.Fatal(err)
	}
	if err := lp.Validate(64); err != nil {
		t.Fatalf("lowered branch targets invalid: %v", err)
	}
	// The loop back-edge must land on the start of the lowered produce
	// sequence (the original branch targeted the produce).
	var backEdge *isa.Instr
	for i := range lp.Instrs {
		if lp.Instrs[i].Op == isa.Beqz {
			backEdge = &lp.Instrs[i]
		}
	}
	if backEdge == nil {
		t.Fatal("no back edge found")
	}
	// Target is the prologue (2 instructions) plus the two leading movi
	// instructions of the original program.
	if backEdge.Imm != 4 {
		t.Errorf("back edge targets %d, want 4", backEdge.Imm)
	}
}

func TestLowerNoQueuesIsIdentity(t *testing.T) {
	b := asm.NewBuilder("plain")
	b.MovI(1, 1)
	b.Halt()
	p := b.MustProgram()
	lp, err := Lower(p, layout())
	if err != nil {
		t.Fatal(err)
	}
	if lp != p {
		t.Error("program without queues should be returned unchanged")
	}
}

func TestLowerRegisterConflict(t *testing.T) {
	b := asm.NewBuilder("greedy")
	b.MovI(63, 1) // collides with lowering scratch registers
	b.Produce(0, 63)
	b.Halt()
	if _, err := Lower(b.MustProgram(), layout()); err == nil {
		t.Error("register conflict accepted")
	}
}

func TestLowerRejectsFlaglessLayout(t *testing.T) {
	dense := queue.Layout{NumQueues: 64, Depth: 64, QLU: 16, LineBytes: 128}
	prod, _ := pipelinePair(10)
	if _, err := Lower(prod, dense); err == nil {
		t.Error("flagless layout accepted for software queues")
	}
}

func TestGuardSlipCapacity(t *testing.T) {
	// The producer's guard slot keeps it one line behind the wrap point:
	// with depth 32 and QLU 8 it can run at most 24 items ahead. Verify
	// by producing without a consumer in the interpreter: the producer
	// must spin (never halt) after exactly depth-QLU items.
	c := asm.NewBuilder("p2")
	c.MovI(1, 1)
	c.MovI(2, 100)
	c.Label("loop")
	c.Produce(0, 1)
	c.AddI(1, 1, 1)
	c.CmpLT(4, 2, 1)
	c.Beqz(4, "loop")
	c.Halt()
	lp, err := Lower(c.MustProgram(), layout())
	if err != nil {
		t.Fatal(err)
	}
	img := mem.New()
	m := interp.New(img, lp)
	err = m.Run(2_000_000)
	if err == nil {
		t.Fatal("producer without consumer should spin forever")
	}
	// Count the flags it managed to set: depth - QLU items.
	l := layout()
	set := 0
	for s := 0; s < l.Depth; s++ {
		if img.Read8(l.FlagAddr(0, s)) == 1 {
			set++
		}
	}
	if set != l.Depth-l.QLU {
		t.Errorf("producer ran %d items ahead, want %d", set, l.Depth-l.QLU)
	}
}
