package sim_test

import (
	"errors"
	"strings"
	"testing"

	"hfstream/internal/asm"
	"hfstream/internal/design"
	"hfstream/internal/isa"
	"hfstream/internal/mem"
	"hfstream/internal/memsys"
	"hfstream/internal/queue"
	"hfstream/internal/sim"
)

// TestWatchdogDetectsQueueDeadlock: a consumer waiting on a queue that is
// never filled must be reported as a deadlock, not hang the simulator.
func TestWatchdogDetectsQueueDeadlock(t *testing.T) {
	b := asm.NewBuilder("stuck")
	b.Consume(1, 0)
	b.Halt()
	other := asm.NewBuilder("idle")
	other.Halt()

	cfg := design.HeavyWTConfig().SimConfig()
	cfg.WatchdogIdle = 2000
	_, err := sim.Run(cfg, mem.New(), []sim.Thread{
		{Prog: other.MustProgram()}, {Prog: b.MustProgram()},
	})
	if err == nil {
		t.Fatal("deadlock not detected")
	}
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("error type %T, want DeadlockError", err)
	}
	if !strings.Contains(dl.Error(), "core 1") {
		t.Errorf("report missing core state: %v", dl)
	}
}

// TestWatchdogDetectsFullQueueStall: a producer with no consumer blocks
// once the queue and interconnect fill.
func TestWatchdogDetectsFullQueueStall(t *testing.T) {
	b := asm.NewBuilder("flood")
	b.MovI(1, 1)
	b.Label("loop")
	b.Produce(0, 1)
	b.B("loop")
	other := asm.NewBuilder("idle")
	other.Halt()

	cfg := design.HeavyWTConfig().SimConfig()
	cfg.WatchdogIdle = 2000
	_, err := sim.Run(cfg, mem.New(), []sim.Thread{
		{Prog: b.MustProgram()}, {Prog: other.MustProgram()},
	})
	if err == nil {
		t.Fatal("full-queue livelock not detected")
	}
}

// TestMaxCyclesBudget: the cycle budget bounds even spinning programs
// that keep issuing instructions.
func TestMaxCyclesBudget(t *testing.T) {
	b := asm.NewBuilder("spin")
	b.Label("loop")
	b.AddI(1, 1, 1)
	b.B("loop")

	cfg := design.ExistingConfig().SimConfig()
	cfg.MaxCycles = 5000
	_, err := sim.Run(cfg, mem.New(), []sim.Thread{{Prog: b.MustProgram()}})
	if err == nil {
		t.Fatal("cycle budget not enforced")
	}
}

// TestCancelAbortsRun: a closed Cancel channel stops even a spinning
// program with a CanceledError at the first poll, cycle 1024, in both
// kernels.
func TestCancelAbortsRun(t *testing.T) {
	b := asm.NewBuilder("spin")
	b.Label("loop")
	b.AddI(1, 1, 1)
	b.B("loop")

	ffModes(t, func(t *testing.T, disableFF bool) {
		cancel := make(chan struct{})
		close(cancel)
		cfg := design.ExistingConfig().SimConfig()
		cfg.Cancel = cancel
		cfg.DisableFastForward = disableFF
		_, err := sim.Run(cfg, mem.New(), []sim.Thread{{Prog: b.MustProgram()}})
		var ce *sim.CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("error = %v (%T), want CanceledError", err, err)
		}
		if ce.Cycle != 1024 {
			t.Errorf("canceled at cycle %d, want 1024", ce.Cycle)
		}
	})
}

// TestCancelUnusedDoesNotFire: an armed but never-closed Cancel channel
// must not perturb a normal run.
func TestCancelUnusedDoesNotFire(t *testing.T) {
	b := asm.NewBuilder("count")
	b.MovI(1, 2000)
	b.Label("loop")
	b.AddI(1, 1, -1)
	b.Bnez(1, "loop")
	b.Halt()

	cfg := design.ExistingConfig().SimConfig()
	cfg.Cancel = make(chan struct{})
	res, err := sim.Run(cfg, mem.New(), []sim.Thread{{Prog: b.MustProgram()}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.UnquiescedExit {
		t.Errorf("unexpected result: cycles=%d unquiesced=%v", res.Cycles, res.UnquiescedExit)
	}
}

// TestValidatesQueueNumbers: bad queue indices are rejected before the
// simulation starts.
func TestValidatesQueueNumbers(t *testing.T) {
	b := asm.NewBuilder("bad")
	b.Produce(9999, 1)
	b.Halt()
	cfg := design.HeavyWTConfig().SimConfig()
	_, err := sim.Run(cfg, mem.New(), []sim.Thread{{Prog: b.MustProgram()}, {Prog: b.MustProgram()}})
	if err == nil {
		t.Fatal("invalid queue number accepted")
	}
}

// TestValidationNamesLowestQueue pins the four queue-routing messages, and
// that a configuration with two offending queues always names the lower
// one: the programs touch the higher queue first, and a map-ordered walk
// would name either from run to run.
func TestValidationNamesLowestQueue(t *testing.T) {
	b := asm.NewBuilder("two-queues")
	b.Produce(6, 1)
	b.Produce(2, 1)
	b.Halt()
	three := []sim.Thread{{Prog: b.MustProgram()}, {Prog: b.MustProgram()}, {Prog: b.MustProgram()}}
	heavy := func(edit func(*sim.Config)) sim.Config {
		cfg := design.HeavyWTConfig().SimConfig()
		edit(&cfg)
		return cfg
	}
	routed := design.SyncOptiConfig().SimConfig()
	routed.Mem.QueueRoutes = make([]memsys.QueueRoute, 8)
	routed.Mem.QueueRoutes[2] = memsys.QueueRoute{Producer: 0, Consumer: 3}
	routed.Mem.QueueRoutes[6] = memsys.QueueRoute{Producer: -1, Consumer: 1}
	for _, tc := range []struct {
		name string
		cfg  sim.Config
		want string
	}{
		{"sync-array range", heavy(func(c *sim.Config) { c.SA.NumQueues = 2 }),
			"sim: queue 2 out of range: synchronization array has 2 queues"},
		{"MPMC route core", heavy(func(c *sim.Config) {
			c.SA.MPMC = map[int]queue.MPMCRoute{
				6: {Producers: []int{0, 4}, Consumers: []int{1}},
				2: {Producers: []int{0}, Consumers: []int{1, 3}},
			}
		}), "sim: queue 2 MPMC route references core 3 outside [0,3)"},
		{"missing route", design.SyncOptiConfig().SimConfig(),
			"sim: queue 2 has no route: 3 cores need explicit QueueRoutes"},
		{"route core range", routed,
			"sim: queue 2 route (0 -> 3) references cores outside [0,3)"},
	} {
		for i := 0; i < 20; i++ {
			_, err := sim.Run(tc.cfg, mem.New(), three)
			var ve *sim.ValidationError
			if !errors.As(err, &ve) || err.Error() != tc.want {
				t.Fatalf("%s, run %d: error %v, want ValidationError %q", tc.name, i, err, tc.want)
			}
		}
	}
}

// TestNoThreads rejects an empty thread list.
func TestNoThreads(t *testing.T) {
	if _, err := sim.Run(design.ExistingConfig().SimConfig(), mem.New(), nil); err == nil {
		t.Fatal("empty thread list accepted")
	}
}

// TestBreakdownsSumToCoreCycles: the attribution invariant holds on a
// real run.
func TestBreakdownsSumToCoreCycles(t *testing.T) {
	prod := asm.NewBuilder("p")
	prod.MovI(1, 50)
	prod.Label("loop")
	prod.Produce(0, 1)
	prod.AddI(1, 1, -1)
	prod.Bnez(1, "loop")
	prod.Halt()
	cons := asm.NewBuilder("c")
	cons.MovI(1, 50)
	cons.Label("loop")
	cons.Consume(2, 0)
	cons.AddI(1, 1, -1)
	cons.Bnez(1, "loop")
	cons.Halt()

	res, err := sim.Run(design.HeavyWTConfig().SimConfig(), mem.New(), []sim.Thread{
		{Prog: prod.MustProgram()}, {Prog: cons.MustProgram()},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, bd := range res.Breakdowns {
		if bd.Total() == 0 {
			t.Errorf("core %d: empty breakdown", i)
		}
		if bd.Total() > res.Cycles {
			t.Errorf("core %d: breakdown %d exceeds total %d", i, bd.Total(), res.Cycles)
		}
	}
}

// TestInitialRegisters: thread register initialization is applied.
func TestInitialRegisters(t *testing.T) {
	b := asm.NewBuilder("r")
	b.MovI(2, 0x9000)
	b.St(2, 0, 1) // store r1, set via Thread.Regs
	b.Halt()
	img := mem.New()
	_, err := sim.Run(design.ExistingConfig().SimConfig(), img, []sim.Thread{
		{Prog: b.MustProgram(), Regs: map[isa.Reg]uint64{1: 777}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if img.Read8(0x9000) != 777 {
		t.Errorf("initial register lost: %d", img.Read8(0x9000))
	}
}
