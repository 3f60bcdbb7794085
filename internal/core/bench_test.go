package core

import (
	"testing"

	"hfstream/internal/asm"
	"hfstream/internal/isa"
	"hfstream/internal/queue"
	"hfstream/internal/stats"
)

// BenchmarkTickIssue ticks a core whose every cycle issues a full bundle:
// five independent increments and the loop's branch.
func BenchmarkTickIssue(b *testing.B) {
	bl := asm.NewBuilder("issue")
	bl.Label("top")
	for r := 1; r <= 5; r++ {
		bl.AddI(isa.Reg(r), isa.Reg(r), 1)
	}
	bl.B("top")
	c := New(0, DefaultParams(), bl.MustProgram(), newFakeMem(1), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Tick(uint64(i) + 1)
	}
	if c.IssueCycles != uint64(b.N) {
		b.Fatalf("%d of %d cycles issued", c.IssueCycles, b.N)
	}
}

// BenchmarkTickTokenStall charges the cycles of a use waiting on a load
// that never completes, by ticking every cycle and by Replay, which is
// what sim.Run does with fast-forward on.
func BenchmarkTickTokenStall(b *testing.B) {
	for _, replay := range []bool{false, true} {
		name := "tick"
		if replay {
			name = "replay"
		}
		b.Run(name, func(b *testing.B) {
			bl := asm.NewBuilder("stall")
			bl.Ld(2, 1, 0)
			bl.Add(3, 2, 2)
			bl.Halt()
			// The route never ticks, so the load never completes.
			c := New(0, DefaultParams(), bl.MustProgram(), newRouteMem(1, []stats.Bucket{stats.L2}), nil)
			c.Tick(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cycle := uint64(i) + 2; !replay || !c.Replay(cycle) {
					c.Tick(cycle)
				}
			}
			if c.Stalls[StallToken] != uint64(b.N) {
				b.Fatalf("%d of %d cycles charged to memory-token", c.Stalls[StallToken], b.N)
			}
		})
	}
}

// BenchmarkTickQueueStall charges the cycles of a produce the
// synchronization array refuses because its queue is full and no credit
// ever returns, by ticking every cycle and by Replay.
func BenchmarkTickQueueStall(b *testing.B) {
	for _, replay := range []bool{false, true} {
		name := "tick"
		if replay {
			name = "replay"
		}
		b.Run(name, func(b *testing.B) {
			sa, err := queue.NewSyncArray(queue.DefaultSAParams(1, 1))
			if err != nil {
				b.Fatal(err)
			}
			strm := sa.Port(0)
			// Depth 1 plus one in flight: two produces fill the queue, and
			// the array never ticks, so no credit comes back.
			for i := 0; i < 2; i++ {
				if _, ok := strm.Produce(1, 0, 0); !ok {
					b.Fatal("produce rejected below capacity")
				}
			}
			bl := asm.NewBuilder("full")
			bl.Produce(0, 1)
			bl.Halt()
			c := New(0, DefaultParams(), bl.MustProgram(), newFakeMem(1), strm)
			c.Tick(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cycle := uint64(i) + 2; !replay || !c.Replay(cycle) {
					c.Tick(cycle)
				}
			}
			if c.Stalls[StallQueueFull] != uint64(b.N)+1 || sa.FullStalls != uint64(b.N)+1 {
				b.Fatalf("%d of %d cycles charged to queue-full, %d full stalls counted",
					c.Stalls[StallQueueFull], b.N+1, sa.FullStalls)
			}
		})
	}
}
