package core

import (
	"testing"

	"hfstream/internal/asm"
	"hfstream/internal/isa"
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
