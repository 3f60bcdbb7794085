package sim_test

import (
	"testing"

	"hfstream/internal/asm"
	"hfstream/internal/design"
	"hfstream/internal/isa"
	"hfstream/internal/lower"
	"hfstream/internal/mem"
	"hfstream/internal/sim"
)

const resultAddr = 0x1000

// producerProg produces 1..n on queue 0 followed by a zero sentinel.
func producerProg(n int64) *isa.Program { return producerProgOn(0, n) }

// producerProgOn is producerProg on queue q.
func producerProgOn(q int, n int64) *isa.Program {
	b := asm.NewBuilder("producer")
	b.MovI(1, 1) // r1 = i
	b.MovI(2, n) // r2 = n
	b.MovI(3, 1) // r3 = 1
	b.Label("loop")
	b.Produce(q, 1)   // produce i
	b.Add(1, 1, 3)    // i++
	b.CmpLT(4, 2, 1)  // r4 = n < i
	b.Beqz(4, "loop") // while i <= n
	b.MovI(5, 0)
	b.Produce(q, 5) // sentinel
	b.Halt()
	return b.MustProgram()
}

// consumerProg sums queue 0 until the zero sentinel, storing the sum.
func consumerProg() *isa.Program { return consumerProgOn(0) }

// consumerProgOn is consumerProg on queue q.
func consumerProgOn(q int) *isa.Program {
	b := asm.NewBuilder("consumer")
	b.MovI(1, 0) // r1 = acc
	b.MovI(2, resultAddr)
	b.Label("loop")
	b.Consume(3, q)
	b.Beqz(3, "done")
	b.Add(1, 1, 3)
	b.B("loop")
	b.Label("done")
	b.St(2, 0, 1)
	b.Halt()
	return b.MustProgram()
}

func runPipe(t *testing.T, cfg design.Config, n int64) *sim.Result {
	t.Helper()
	return runPipeOn(t, cfg, 0, n)
}

// runPipeOn is runPipe with the pipeline on queue q.
func runPipeOn(t *testing.T, cfg design.Config, q int, n int64) *sim.Result {
	t.Helper()
	prod, cons := producerProgOn(q, n), consumerProgOn(q)
	if cfg.SoftwareQueues() {
		var err error
		prod, err = lower.Lower(prod, cfg.Layout())
		if err != nil {
			t.Fatalf("lower producer: %v", err)
		}
		cons, err = lower.Lower(cons, cfg.Layout())
		if err != nil {
			t.Fatalf("lower consumer: %v", err)
		}
	}
	image := mem.New()
	res, err := sim.Run(cfg.SimConfig(), image, []sim.Thread{{Prog: prod}, {Prog: cons}})
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name(), err)
	}
	want := uint64(n * (n + 1) / 2)
	if got := image.Read8(resultAddr); got != want {
		t.Fatalf("%s: consumer sum = %d, want %d", cfg.Name(), got, want)
	}
	return res
}

func TestPipelineAllDesigns(t *testing.T) {
	configs := []design.Config{
		design.ExistingConfig(),
		design.MemOptiConfig(),
		design.SyncOptiConfig(),
		design.SyncOptiQ64Config(),
		design.SyncOptiSCConfig(),
		design.SyncOptiSCQ64Config(),
		design.HeavyWTConfig(),
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			res := runPipe(t, cfg, 500)
			t.Logf("%s: %d cycles, bus grants %d", cfg.Name(), res.Cycles, res.Bus.Grants)
			if res.Cycles == 0 {
				t.Fatal("zero cycles")
			}
		})
	}
}

// TestLastQueueAlone runs a SYNCOPTI pipeline whose only queue is the
// layout's last. The controllers keep stream state only for the queues the
// programs can name, so this run needs all of them, and it must take the
// cycles the same pipeline takes on queue 0.
func TestLastQueueAlone(t *testing.T) {
	for _, cfg := range []design.Config{design.SyncOptiConfig(), design.SyncOptiSCQ64Config()} {
		t.Run(cfg.Name(), func(t *testing.T) {
			last := cfg.Layout().NumQueues - 1
			first, alone := runPipeOn(t, cfg, 0, 500), runPipeOn(t, cfg, last, 500)
			if first.Cycles != alone.Cycles {
				t.Errorf("queue %d takes %d cycles, queue 0 %d", last, alone.Cycles, first.Cycles)
			}
		})
	}
}

func TestDesignOrdering(t *testing.T) {
	heavy := runPipe(t, design.HeavyWTConfig(), 800).Cycles
	sync := runPipe(t, design.SyncOptiConfig(), 800).Cycles
	scq64 := runPipe(t, design.SyncOptiSCQ64Config(), 800).Cycles
	existing := runPipe(t, design.ExistingConfig(), 800).Cycles
	t.Logf("HEAVYWT=%d SYNCOPTI=%d SC+Q64=%d EXISTING=%d", heavy, sync, scq64, existing)
	if !(heavy <= sync) {
		t.Errorf("HEAVYWT (%d) should beat SYNCOPTI (%d)", heavy, sync)
	}
	if !(sync < existing) {
		t.Errorf("SYNCOPTI (%d) should beat EXISTING (%d)", sync, existing)
	}
	if !(scq64 < existing) {
		t.Errorf("SC+Q64 (%d) should beat EXISTING (%d)", scq64, existing)
	}
}

func TestSingleCore(t *testing.T) {
	b := asm.NewBuilder("single")
	b.MovI(1, 0)
	b.MovI(2, 100)
	b.MovI(3, 1)
	b.MovI(4, 0) // i
	b.Label("loop")
	b.Add(1, 1, 4)
	b.Add(4, 4, 3)
	b.CmpLT(5, 4, 2)
	b.Bnez(5, "loop")
	b.MovI(6, resultAddr)
	b.St(6, 0, 1)
	b.Halt()
	prog := b.MustProgram()

	image := mem.New()
	cfg := design.ExistingConfig().SimConfig()
	res, err := sim.Run(cfg, image, []sim.Thread{{Prog: prog}})
	if err != nil {
		t.Fatal(err)
	}
	if got := image.Read8(resultAddr); got != 4950 {
		t.Fatalf("sum = %d, want 4950", got)
	}
	if res.Cycles == 0 || res.Cycles > 10000 {
		t.Fatalf("suspicious cycle count %d", res.Cycles)
	}
}
