package dswp

import (
	"testing"

	"hfstream/internal/interp"
	"hfstream/internal/ir"
	"hfstream/internal/isa"
	"hfstream/internal/mem"
)

// Parallel-stage partitions must be bit-equivalent to the sequential
// loop for every worker count: the merger reconstructs iteration order
// from the round-robin lanes.
func TestPartitionParallelMatchesSingle(t *testing.T) {
	const n = 61 // deliberately not a multiple of any worker count
	for workers := 2; workers <= 5; workers++ {
		l, in, out := buildCounted(n)
		res, err := PartitionParallel(l, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Stages != workers+1 {
			t.Fatalf("workers=%d: result shape %+v", workers, res)
		}
		if len(res.Threads) != workers+1 {
			t.Fatalf("workers=%d: %d threads", workers, len(res.Threads))
		}
		if res.QueueCount%workers != 0 {
			t.Fatalf("workers=%d: queue count %d not a multiple of the worker count", workers, res.QueueCount)
		}
		for _, r := range res.Routes {
			if r.Consumer != workers {
				t.Fatalf("workers=%d: route %+v does not target the merger", workers, r)
			}
			if r.Producer < 0 || r.Producer >= workers {
				t.Fatalf("workers=%d: route %+v has no worker producer", workers, r)
			}
		}
		for _, th := range res.Threads {
			if err := th.Validate(64); err != nil {
				t.Fatalf("workers=%d: generated program invalid: %v", workers, err)
			}
		}

		single, err := Single(l)
		if err != nil {
			t.Fatal(err)
		}
		img1 := setupImage(in, n)
		if err := interp.New(img1, single).Run(0); err != nil {
			t.Fatalf("single: %v", err)
		}
		img2 := setupImage(in, n)
		if err := interp.New(img2, res.Threads...).Run(0); err != nil {
			t.Fatalf("workers=%d: parallel run: %v", workers, err)
		}
		if got, want := img2.Read8(out.Base), img1.Read8(out.Base); got != want {
			t.Fatalf("workers=%d: parallel %d != single %d", workers, got, want)
		}
		if img1.Read8(out.Base) == 0 {
			t.Fatal("suspicious zero result")
		}
	}
}

// Fewer iterations than workers: late workers never get a turn but must
// still halt, and the merger must still see every produced value.
func TestPartitionParallelFewIterations(t *testing.T) {
	const n = 3
	l, in, out := buildCounted(n)
	res, err := PartitionParallel(l, 5)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Single(l)
	if err != nil {
		t.Fatal(err)
	}
	img1 := setupImage(in, n)
	if err := interp.New(img1, single).Run(0); err != nil {
		t.Fatal(err)
	}
	img2 := setupImage(in, n)
	if err := interp.New(img2, res.Threads...).Run(0); err != nil {
		t.Fatal(err)
	}
	if got, want := img2.Read8(out.Base), img1.Read8(out.Base); got != want {
		t.Fatalf("parallel %d != single %d", got, want)
	}
}

// A loop whose exit condition chases memory cannot replicate its control
// slice across workers.
func TestPartitionParallelRejectsMemorySlice(t *testing.T) {
	a := mem.NewAllocator(0x10000, 128)
	pool := a.Alloc("pool", 64*128)
	l := ir.NewLoop("chase")
	ptr := l.Load(&pool, ir.C(0), 0)
	ptr.Args[0] = ir.Operand{Node: ptr, Carried: true, Init: int64(pool.Base)}
	cond := l.Op(isa.CmpNE, ir.V(ptr), ir.C(0))
	l.SetExit(cond)
	if _, err := PartitionParallel(l, 2); err == nil {
		t.Fatal("accepted a memory-dependent exit slice")
	}
}

// A purely sequential loop (every node carried or control) has no
// parallel work to replicate.
func TestPartitionParallelRejectsSequentialLoop(t *testing.T) {
	l := ir.NewLoop("seq")
	idx := l.Counter(-1, 1)
	cond := l.Op(isa.CmpLT, ir.V(idx), ir.C(9))
	l.SetExit(cond)
	if _, err := PartitionParallel(l, 2); err == nil {
		t.Fatal("accepted a loop with no parallel work")
	}
	if _, err := PartitionParallel(l, 1); err == nil {
		t.Fatal("accepted a single worker")
	}
}
