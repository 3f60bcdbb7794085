package sim_test

import (
	"reflect"
	"testing"

	"hfstream/internal/asm"
	"hfstream/internal/design"
	"hfstream/internal/isa"
	"hfstream/internal/mem"
	"hfstream/internal/sim"
	"hfstream/internal/stats"
)

// lateProducerProg spins through a countdown of delay iterations before
// producing 1..n and the zero sentinel on queue 0.
func lateProducerProg(delay, n int64) *isa.Program {
	b := asm.NewBuilder("late-producer")
	b.MovI(6, delay)
	b.Label("wait")
	b.AddI(6, 6, -1)
	b.Bnez(6, "wait")
	b.MovI(1, 1) // r1 = i
	b.MovI(2, n) // r2 = n
	b.MovI(3, 1) // r3 = 1
	b.Label("loop")
	b.Produce(0, 1)
	b.Add(1, 1, 3)
	b.CmpLT(4, 2, 1)
	b.Beqz(4, "loop")
	b.MovI(5, 0)
	b.Produce(0, 5)
	b.Halt()
	return b.MustProgram()
}

// TestQueueOccupancyHoldsNoNegativeItems: a SYNCOPTI consumer issues its
// consume into the OzQ before the producer has produced anything, so for a
// while more consumes than produces have issued. Such a consume holds no
// item in flight, and the occupancy histogram must read those cycles as 0
// in flight, not as a count wrapped below zero into the top bucket, with
// fast-forward on and off alike.
func TestQueueOccupancyHoldsNoNegativeItems(t *testing.T) {
	cfg := design.SyncOptiConfig()
	var res [2]*sim.Result
	for i, noFF := range []bool{false, true} {
		sc := cfg.SimConfig()
		sc.DisableFastForward = noFF
		image := mem.New()
		r, err := sim.Run(sc, image, []sim.Thread{{Prog: lateProducerProg(200, 50)}, {Prog: consumerProg()}})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := image.Read8(resultAddr), uint64(50*51/2); got != want {
			t.Fatalf("consumer sum = %d, want %d", got, want)
		}
		if n := r.QueueOcc.Counts[stats.HistBuckets-1]; n != 0 {
			t.Errorf("fast-forward off=%v: %d cycles in the top occupancy bucket", noFF, n)
		}
		res[i] = r
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Errorf("fast-forward on and off differ:\non  %+v\noff %+v", res[0], res[1])
	}
}
