package memsys

import "testing"

// BenchmarkControllerTick times one SYNCOPTI controller Tick over a
// steady OzQ of ten entries: four produces dormant on a full queue with no
// consumer, a fence that never completes behind them, and five stores
// recirculating behind the fence, each taking an L2 port every few ticks.
func BenchmarkControllerTick(b *testing.B) {
	r := newRig(b, syncParams)
	c := r.fab.Controller(0)
	r.step(1)
	depth := testLayout().Depth
	for i := 0; i < depth+4; i++ {
		r.until(c.CanAccept)
		if _, ok := c.Produce(r.cycle, 0, uint64(i)); !ok {
			b.Fatalf("produce %d refused", i)
		}
		r.step(2)
	}
	r.step(2000) // the first depth items commit; the rest go dormant
	c.Fence(r.cycle)
	for i := 0; i < 5; i++ {
		c.Store(r.cycle, uint64(0x9000+128*i), uint64(i))
	}
	r.step(100)
	if len(c.ozq) != 10 || !r.fab.bus.Idle(r.cycle) {
		b.Fatalf("setup left %d OzQ entries (want 10), bus idle %v", len(c.ozq), r.fab.bus.Idle(r.cycle))
	}
	retries := c.RecircRetries
	cycle := r.cycle
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle++
		c.Tick(cycle)
	}
	b.StopTimer()
	if len(c.ozq) != 10 || (b.N >= 100 && c.RecircRetries == retries) {
		b.Fatalf("the OzQ left its steady state: %d entries, %d recirculations", len(c.ozq), c.RecircRetries-retries)
	}
}
