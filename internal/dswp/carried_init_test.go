package dswp

import (
	"testing"

	"hfstream/internal/interp"
	"hfstream/internal/ir"
	"hfstream/internal/isa"
	"hfstream/internal/mem"
)

// TestDistinctCarriedInits is the regression test for a codegen bug found
// by TestRandomLoopsPartitionEquivalence: two loop-carried uses of the
// same node with different iteration-zero values must get distinct carry
// registers. When they collapsed, whichever use was scanned first donated
// its init to both — and single-threaded and pipelined code could
// disagree whenever the uses landed in different threads.
func TestDistinctCarriedInits(t *testing.T) {
	const n = 10
	a := mem.NewAllocator(0x10000, 128)
	in := a.Alloc("in", n*8)
	out := a.Alloc("out", 128)

	l := ir.NewLoop("inits")
	idx := l.Counter(-1, 1)
	cond := l.Op(isa.CmpLT, ir.V(idx), ir.C(n-1))
	l.SetExit(cond)
	off := l.Op(isa.ShlI, ir.V(idx), ir.C(3))
	addr := l.Op(isa.AddI, ir.V(off), ir.C(int64(in.Base)))
	v := l.Load(&in, ir.V(addr), 0)
	// Two carried uses of v with different inits, kept in one thread...
	u1 := l.Op(isa.Add, ir.V(v), ir.Carried(v, 100))
	// ...and one with a third init that the balancer may move away.
	u2 := l.Op(isa.Mul, ir.V(u1), ir.Carried(v, 7))
	acc1 := l.Acc(isa.Add, ir.V(u1), 0)
	acc2 := l.Acc(isa.Add, ir.V(u2), 0)
	l.Store(&out, ir.C(int64(out.Base)), 0, ir.V(acc1))
	l.Store(&out, ir.C(int64(out.Base)), 8, ir.V(acc2))

	img := mem.New()
	for i := 0; i < n; i++ {
		img.Write8(in.Base+uint64(i*8), uint64(i+1))
	}

	// Hand-computed expectation for iteration 0: u1 = v0 + 100,
	// u2 = u1 * 7 (not *100!).
	single, err := Single(l)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(img, single)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	// Recompute in Go.
	var a1, a2, prevV uint64
	init1, init2 := uint64(100), uint64(7)
	for i := 0; i < n; i++ {
		v := uint64(i + 1)
		c1, c2 := prevV, prevV
		if i == 0 {
			c1, c2 = init1, init2
		}
		u1 := v + c1
		u2 := u1 * c2
		a1 += u1
		a2 += u2
		prevV = v
	}
	if got := img.Read8(out.Base); got != a1 {
		t.Errorf("single acc1 = %d, want %d", got, a1)
	}
	if got := img.Read8(out.Base + 8); got != a2 {
		t.Errorf("single acc2 = %d, want %d (distinct init lost)", got, a2)
	}

	// And the pipelined version must agree.
	res, err := Partition(l)
	if err != nil {
		t.Skipf("not pipelinable: %v", err)
	}
	img2 := mem.New()
	for i := 0; i < n; i++ {
		img2.Write8(in.Base+uint64(i*8), uint64(i+1))
	}
	if err := interp.New(img2, res.Threads...).Run(0); err != nil {
		t.Fatal(err)
	}
	if img2.Read8(out.Base) != a1 || img2.Read8(out.Base+8) != a2 {
		t.Errorf("pipelined accs = %d/%d, want %d/%d",
			img2.Read8(out.Base), img2.Read8(out.Base+8), a1, a2)
	}
}
