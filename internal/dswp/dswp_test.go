package dswp

import (
	"fmt"
	"testing"
	"testing/quick"

	"hfstream/internal/interp"
	"hfstream/internal/ir"
	"hfstream/internal/isa"
	"hfstream/internal/mem"
)

// buildCounted makes a loop summing a[i]*3 into an accumulator stored to
// out, with an extra FP-ish tail for weight.
func buildCounted(n int) (*ir.Loop, mem.Region, mem.Region) {
	a := mem.NewAllocator(0x10000, 128)
	in := a.Alloc("in", uint64(n*8))
	out := a.Alloc("out", 128)
	l := ir.NewLoop("counted")
	idx := l.Counter(-1, 1)
	cond := l.Op(isa.CmpLT, ir.V(idx), ir.C(int64(n-1)))
	l.SetExit(cond)
	off := l.Op(isa.ShlI, ir.V(idx), ir.C(3))
	addr := l.Op(isa.AddI, ir.V(off), ir.C(int64(in.Base)))
	v := l.Load(&in, ir.V(addr), 0)
	scaled := l.Op(isa.Mul, ir.V(v), ir.C(3))
	acc := l.Acc(isa.Add, ir.V(scaled), 0)
	l.Store(&out, ir.C(int64(out.Base)), 0, ir.V(acc))
	return l, in, out
}

func setupImage(in mem.Region, n int) *mem.Memory {
	img := mem.New()
	for i := 0; i < n; i++ {
		img.Write8(in.Base+uint64(i*8), uint64(i*i%97))
	}
	return img
}

func TestPartitionCountedLoop(t *testing.T) {
	l, _, _ := buildCounted(50)
	res, err := Partition(l)
	if err != nil {
		t.Fatal(err)
	}
	if res.CondStreamed {
		t.Error("pure counted control should be replicated, not streamed")
	}
	if len(res.Replicated) == 0 {
		t.Error("no replicated control slice")
	}
	if res.QueueCount < 1 {
		t.Error("no queues")
	}
	for _, th := range res.Threads {
		if err := th.Validate(64); err != nil {
			t.Errorf("generated program invalid: %v", err)
		}
	}
}

func TestPartitionMatchesSingle(t *testing.T) {
	const n = 60
	l, in, out := buildCounted(n)
	res, err := Partition(l)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Single(l)
	if err != nil {
		t.Fatal(err)
	}

	img1 := setupImage(in, n)
	m1 := interp.New(img1, single)
	if err := m1.Run(0); err != nil {
		t.Fatal(err)
	}
	img2 := setupImage(in, n)
	m2 := interp.New(img2, res.Threads[0], res.Threads[1])
	if err := m2.Run(0); err != nil {
		t.Fatal(err)
	}
	if img1.Read8(out.Base) != img2.Read8(out.Base) {
		t.Fatalf("single %d != pipelined %d", img1.Read8(out.Base), img2.Read8(out.Base))
	}
	if img1.Read8(out.Base) == 0 {
		t.Fatal("suspicious zero result")
	}
}

func TestPointerChaseStreamsCondition(t *testing.T) {
	a := mem.NewAllocator(0x10000, 128)
	pool := a.Alloc("pool", 64*128)
	out := a.Alloc("out", 128)
	l := ir.NewLoop("chase")
	ptr := l.Load(&pool, ir.C(0), 0)
	ptr.Args[0] = ir.Operand{Node: ptr, Carried: true, Init: int64(pool.Base)}
	val := l.Load(&pool, ir.V(ptr), 8)
	acc := l.Acc(isa.Add, ir.V(val), 0)
	l.Store(&out, ir.C(int64(out.Base)), 0, ir.V(acc))
	cond := l.Op(isa.CmpNE, ir.V(ptr), ir.C(0))
	l.SetExit(cond)

	res, err := Partition(l)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CondStreamed {
		t.Error("load-dependent exit should stream the condition")
	}
	// The traversal must live in stage 0 (control flows forward only).
	if th := res.Assignment[ptr.ID]; th != 0 {
		t.Errorf("pointer chase assigned to stage %d", th)
	}

	// And it must run correctly.
	img := mem.New()
	for i := 0; i < 20; i++ {
		nodeAddr := pool.Base + uint64(i*128)
		next := uint64(0)
		if i < 19 {
			next = pool.Base + uint64((i+1)*128)
		}
		img.Write8(nodeAddr, next)
		img.Write8(nodeAddr+8, uint64(i+1))
	}
	m := interp.New(img, res.Threads[0], res.Threads[1])
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	// Sum of 2..20 plus the final zero-node read (value at address 8 = 0).
	want := uint64(0)
	for i := 2; i <= 20; i++ {
		want += uint64(i)
	}
	if got := img.Read8(out.Base); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

func TestSingleSCCNotPipelinable(t *testing.T) {
	l := ir.NewLoop("knot")
	// One self-contained recurrence, nothing else.
	acc := l.Acc(isa.Add, ir.C(1), 0)
	cond := l.Op(isa.CmpLT, ir.V(acc), ir.C(10))
	l.SetExit(cond)
	if _, err := Partition(l); err == nil {
		t.Error("expected not-pipelinable error")
	}
}

func TestPinsRespected(t *testing.T) {
	const n = 40
	l, _, _ := buildCounted(n)
	// Pin the multiply to stage 0 (it would naturally go to stage 1 with
	// the accumulator).
	var mul *ir.Node
	for _, nd := range l.Body {
		if nd.Op == isa.Mul {
			mul = nd
		}
	}
	l.Pin(mul, 0)
	res, err := Partition(l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment[mul.ID] != 0 {
		t.Errorf("pinned node landed in stage %d", res.Assignment[mul.ID])
	}
}

func TestScheduleRespectsDependences(t *testing.T) {
	const n = 30
	l, _, _ := buildCounted(n)
	res, err := Partition(l)
	if err != nil {
		t.Fatal(err)
	}
	// In each generated program, every register read must be preceded by
	// a write of that register (or an initial movi) — a cheap proxy for
	// schedule correctness beyond the interpreter equivalence test.
	for _, p := range res.Threads {
		written := map[isa.Reg]bool{}
		for _, in := range p.Instrs {
			if in.Op.ReadsRa() && !written[in.Ra] {
				t.Fatalf("%s: %v reads r%d before any write", p.Name, in, in.Ra)
			}
			if in.Op.ReadsRb() && !written[in.Rb] {
				t.Fatalf("%s: %v reads r%d before any write", p.Name, in, in.Rb)
			}
			if in.Op.WritesRd() {
				written[in.Rd] = true
			}
		}
	}
}

// randomLoop builds a random but valid counted loop from a seed:
// a mix of ALU chains, accumulators and carried references over a small
// input array, with the final values stored for comparison.
func randomLoop(seed uint32, n int) (*ir.Loop, mem.Region, mem.Region) {
	a := mem.NewAllocator(0x10000, 128)
	in := a.Alloc("in", uint64(n*8))
	out := a.Alloc("out", 1024)

	rng := seed | 1
	next := func(m int) int {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		return int(rng) & 0x7fffffff % m
	}

	l := ir.NewLoop("rand")
	idx := l.Counter(-1, 1)
	cond := l.Op(isa.CmpLT, ir.V(idx), ir.C(int64(n-1)))
	l.SetExit(cond)
	off := l.Op(isa.ShlI, ir.V(idx), ir.C(3))
	addr := l.Op(isa.AddI, ir.V(off), ir.C(int64(in.Base)))
	v := l.Load(&in, ir.V(addr), 0)

	pool := []*ir.Node{v, off}
	ops := []isa.Op{isa.Add, isa.Sub, isa.Xor, isa.And, isa.Or, isa.Mul}
	k := 4 + next(10)
	for i := 0; i < k; i++ {
		op := ops[next(len(ops))]
		x := pool[next(len(pool))]
		var node *ir.Node
		switch next(3) {
		case 0: // binary with another pool node
			y := pool[next(len(pool))]
			node = l.Op(op, ir.V(x), ir.V(y))
		case 1: // accumulator
			node = l.Acc(op, ir.V(x), int64(next(100)))
		default: // carried use of an earlier node
			y := pool[next(len(pool))]
			node = l.Op(op, ir.V(x), ir.Carried(y, int64(next(50))))
		}
		pool = append(pool, node)
	}
	// Store the last few nodes so every chain's history is observable.
	for i := 0; i < 3 && i < len(pool); i++ {
		l.Store(&out, ir.C(int64(out.Base)), int64(i*8), ir.V(pool[len(pool)-1-i]))
	}
	return l, in, out
}

// checkRandomLoop is the DSWP correctness property on one seeded random
// loop and one pipeline shape — a chain of n stages or, with parallel, n
// PS-DSWP workers plus their merger: the partitioned threads, run on the
// functional interpreter, leave the output words the single-threaded
// program leaves. partitioned is false when the partitioner declines the
// shape (a random loop can collapse into one SCC, or hold no parallel
// work): a valid answer, not a failure.
func checkRandomLoop(seed uint32, n int, parallel bool) (partitioned bool, err error) {
	const iters = 40
	l, in, out := randomLoop(seed, iters)
	if err := l.Validate(); err != nil {
		return false, fmt.Errorf("invalid loop: %v", err)
	}
	var res *Result
	if parallel {
		res, err = PartitionParallel(l, n)
	} else {
		res, err = PartitionN(l, n)
	}
	if err != nil {
		return false, nil
	}
	single, err := Single(l)
	if err != nil {
		return true, fmt.Errorf("single codegen: %v", err)
	}
	img1 := setupImage(in, iters)
	if err := interp.New(img1, single).Run(0); err != nil {
		return true, fmt.Errorf("single run: %v", err)
	}
	img2 := setupImage(in, iters)
	if err := interp.New(img2, res.Threads...).Run(0); err != nil {
		return true, fmt.Errorf("pipelined run: %v", err)
	}
	for o := uint64(0); o < 24; o += 8 {
		if img1.Read8(out.Base+o) != img2.Read8(out.Base+o) {
			return true, fmt.Errorf("out+%d: single %#x != pipelined %#x",
				o, img1.Read8(out.Base+o), img2.Read8(out.Base+o))
		}
	}
	return true, nil
}

// TestRandomLoopsPartitionEquivalence quick-checks the property for the
// paper's two stages; FuzzPartition draws the other shapes.
func TestRandomLoopsPartitionEquivalence(t *testing.T) {
	f := func(seed uint32) bool {
		if _, err := checkRandomLoop(seed, 2, false); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// FuzzPartition extends the property to every shape the machine runs:
// shape picks a chain of 2..8 stages or PS-DSWP with 2..6 workers. The
// partitioner declining is a skip; an interpreter error (a deadlocked or
// runaway pipeline) or a differing output word is a failure. The seeds
// below replay as ordinary tests; `make fuzz-smoke` keeps exploring.
func FuzzPartition(f *testing.F) {
	for shape := uint8(0); shape < 12; shape++ {
		f.Add(uint32(shape)*2654435761+1, shape)
	}
	f.Fuzz(func(t *testing.T, seed uint32, shape uint8) {
		n, parallel := 2+int(shape%12), false // 2..8 stages, then 9..13
		if n > 8 {
			n, parallel = n-7, true // 2..6 workers
		}
		partitioned, err := checkRandomLoop(seed, n, parallel)
		if err != nil {
			t.Fatalf("seed %d, n=%d, parallel=%v: %v", seed, n, parallel, err)
		}
		if !partitioned {
			t.Skip("the partitioner declined this shape")
		}
	})
}
