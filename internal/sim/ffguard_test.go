package sim_test

import (
	"errors"
	"reflect"
	"testing"

	"hfstream/fault"
	"hfstream/internal/asm"
	"hfstream/internal/design"
	"hfstream/internal/mem"
	"hfstream/internal/sim"
)

// The fast-forward path jumps over long idle spans in one step. These
// tests pin down that cancellation, the watchdog, and unquiesced-exit
// detection behave identically whether a deadlock is crossed cycle by
// cycle or in a single jump.

// stuckConsumer is a consumer parked forever on an empty queue, paired
// with an idle peer — the canonical deadlock that exercises the longest
// possible idle span.
func stuckConsumer() []sim.Thread {
	b := asm.NewBuilder("stuck")
	b.Consume(1, 0)
	b.Halt()
	idle := asm.NewBuilder("idle")
	idle.Halt()
	return []sim.Thread{{Prog: idle.MustProgram()}, {Prog: b.MustProgram()}}
}

func ffModes(t *testing.T, f func(t *testing.T, disableFF bool)) {
	t.Helper()
	t.Run("ff-on", func(t *testing.T) { f(t, false) })
	t.Run("ff-off", func(t *testing.T) { f(t, true) })
}

// TestCancelPreClosedInsideIdleSpan: a Cancel channel closed before the
// run starts must abort promptly even when the whole run is one
// fast-forwardable idle span.
func TestCancelPreClosedInsideIdleSpan(t *testing.T) {
	ffModes(t, func(t *testing.T, disableFF bool) {
		cancel := make(chan struct{})
		close(cancel)
		cfg := design.HeavyWTConfig().SimConfig()
		cfg.WatchdogIdle = 400000 // far beyond the cancel-poll bound
		cfg.Cancel = cancel
		cfg.DisableFastForward = disableFF
		_, err := sim.Run(cfg, mem.New(), stuckConsumer())
		var ce *sim.CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("error = %v (%T), want CanceledError", err, err)
		}
		// FF-off polls every 1024 cycles, so the abort lands within a few
		// thousand cycles. FF-on crosses the whole idle span in one jump
		// (no wall-clock elapses mid-jump) and polls on the landing cycle,
		// so the abort cycle is bounded by the jump target — the watchdog
		// window — instead.
		limit := uint64(4096)
		if !disableFF {
			limit = cfg.WatchdogIdle + 2
		}
		if ce.Cycle > limit {
			t.Errorf("canceled only at cycle %d, want <= %d", ce.Cycle, limit)
		}
	})
}

// TestCancelMidRunInsideIdleSpan: closing Cancel from the Progress
// callback mid-deadlock must abort the run even though every remaining
// cycle is idle and fast-forwardable.
func TestCancelMidRunInsideIdleSpan(t *testing.T) {
	ffModes(t, func(t *testing.T, disableFF bool) {
		cancel := make(chan struct{})
		closed := false
		cfg := design.HeavyWTConfig().SimConfig()
		cfg.WatchdogIdle = 400000
		cfg.Cancel = cancel
		cfg.DisableFastForward = disableFF
		cfg.ProgressEvery = 512
		cfg.Progress = func(cycle, issued uint64) {
			if cycle >= 2048 && !closed {
				closed = true
				close(cancel)
			}
		}
		_, err := sim.Run(cfg, mem.New(), stuckConsumer())
		var ce *sim.CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("error = %v (%T), want CanceledError", err, err)
		}
		if ce.Cycle < 2048 || ce.Cycle > 8192 {
			t.Errorf("canceled at cycle %d, want shortly after the close at ~2048", ce.Cycle)
		}
	})
}

// TestWatchdogCycleExactUnderFastForward: the watchdog must fire on
// exactly the same cycle with and without fast-forwarding, and moving the
// window by one cycle must move the firing cycle by exactly one.
func TestWatchdogCycleExactUnderFastForward(t *testing.T) {
	fire := func(watchdog uint64, disableFF bool) uint64 {
		cfg := design.HeavyWTConfig().SimConfig()
		cfg.WatchdogIdle = watchdog
		cfg.DisableFastForward = disableFF
		_, err := sim.Run(cfg, mem.New(), stuckConsumer())
		var dl *sim.DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("error = %v (%T), want DeadlockError", err, err)
		}
		return dl.Cycle
	}
	const w = 3000
	on, off := fire(w, false), fire(w, true)
	if on != off {
		t.Errorf("watchdog fired at cycle %d with FF, %d without", on, off)
	}
	on1 := fire(w+1, false)
	if on1 != on+1 {
		t.Errorf("window %d fires at %d, window %d at %d; want exactly +1", w, on, w+1, on1)
	}
}

// TestUnquiescedExitDiagnosisUnderFastForward: a sticky credit drop
// leaves the sync array undrained after both cores halt; the run must
// finish with UnquiescedExit and a populated Diagnosis in both FF modes.
func TestUnquiescedExitDiagnosisUnderFastForward(t *testing.T) {
	prog := func() []sim.Thread {
		p := asm.NewBuilder("p4")
		p.MovI(1, 7)
		for i := 0; i < 4; i++ {
			p.Produce(0, 1)
		}
		p.Halt()
		c := asm.NewBuilder("c4")
		for i := 0; i < 4; i++ {
			c.Consume(2, 0)
		}
		c.Halt()
		return []sim.Thread{{Prog: p.MustProgram()}, {Prog: c.MustProgram()}}
	}
	ffModes(t, func(t *testing.T, disableFF bool) {
		in := fault.Plan{Seed: 1, Events: []fault.Event{{Kind: fault.SACreditDrop, Nth: 1}}}.Injector()
		cfg := design.HeavyWTConfig().SimConfig()
		cfg.WatchdogIdle = 3000
		cfg.DisableFastForward = disableFF
		cfg.Faults = in
		res, err := sim.Run(cfg, mem.New(), prog())
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		if res.Diagnosis == nil {
			t.Fatal("credit drop did not surface as an unquiesced exit")
		}
		if res.Diagnosis.SA == nil {
			t.Error("Diagnosis has no sync-array state for a HEAVYWT run")
		}
		if !in.LossFired() {
			t.Error("loss shot not recorded")
		}
		if len(res.FaultShots) == 0 {
			t.Error("Result.FaultShots empty despite a fired loss plan")
		}
	})
}

// TestFastForwardFaultEquivalence: a firing delay plan must produce the
// same cycle count and result with and without fast-forwarding — delay
// faults are occurrence-triggered, never wall-cycle-triggered.
func TestFastForwardFaultEquivalence(t *testing.T) {
	run := func(disableFF bool) (uint64, uint64) {
		plan := fault.Plan{Seed: 1, Events: []fault.Event{
			{Kind: fault.BusDelay, Nth: 2, Delay: 80},
			{Kind: fault.SAAckDelay, Nth: 1, Delay: 40},
		}}
		image := mem.New()
		cfg := design.HeavyWTConfig().SimConfig()
		cfg.DisableFastForward = disableFF
		cfg.Faults = plan.Injector()
		prod, cons := producerProg(60), consumerProg()
		res, err := sim.Run(cfg, image, []sim.Thread{{Prog: prod}, {Prog: cons}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles, image.Read8(resultAddr)
	}
	onCycles, onSum := run(false)
	offCycles, offSum := run(true)
	if onCycles != offCycles || onSum != offSum {
		t.Errorf("FF-on (cycles=%d sum=%d) != FF-off (cycles=%d sum=%d)",
			onCycles, onSum, offCycles, offSum)
	}
	if want := uint64(60 * 61 / 2); onSum != want {
		t.Errorf("sum = %d, want %d", onSum, want)
	}
}

// TestWatchdogWindowSweepExact sweeps watchdog windows of different
// magnitudes (including ones far off any power-of-two or sampling
// boundary) and requires the firing cycle to be identical with and
// without fast-forwarding for every window — no ±1 slop.
func TestWatchdogWindowSweepExact(t *testing.T) {
	fire := func(watchdog uint64, disableFF bool) uint64 {
		cfg := design.HeavyWTConfig().SimConfig()
		cfg.WatchdogIdle = watchdog
		cfg.DisableFastForward = disableFF
		_, err := sim.Run(cfg, mem.New(), stuckConsumer())
		var dl *sim.DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("window %d: error = %v (%T), want DeadlockError", watchdog, err, err)
		}
		return dl.Cycle
	}
	for _, w := range []uint64{97, 501, 1024, 2500, 4097} {
		on, off := fire(w, false), fire(w, true)
		if on != off {
			t.Errorf("window %d: watchdog fired at cycle %d with FF, %d without", w, on, off)
		}
	}
}

// TestUnquiescedExitCycleExact: the cores-done-but-fabric-stuck exit path
// also rides the watchdog window; its Result.Cycles and diagnosis cycle
// must be identical in both FF modes. Jumps cross the 3 000-cycle idle
// tail, so the samples (every 97 cycles) and the progress reports (every
// 101) must also match in both modes: each is taken on its exact cycle.
func TestUnquiescedExitCycleExact(t *testing.T) {
	type report struct{ cycle, issued uint64 }
	run := func(disableFF bool) (uint64, uint64, []sim.Sample, []report) {
		p := asm.NewBuilder("p1")
		p.MovI(1, 7)
		for i := 0; i < 4; i++ {
			p.Produce(0, 1)
		}
		p.Halt()
		c := asm.NewBuilder("c1")
		for i := 0; i < 4; i++ {
			c.Consume(2, 0)
		}
		c.Halt()
		in := fault.Plan{Seed: 1, Events: []fault.Event{{Kind: fault.SACreditDrop, Nth: 1}}}.Injector()
		cfg := design.HeavyWTConfig().SimConfig()
		cfg.WatchdogIdle = 3000
		cfg.DisableFastForward = disableFF
		cfg.Faults = in
		cfg.SampleInterval = 97
		var reports []report
		cfg.ProgressEvery = 101
		cfg.Progress = func(cycle, issued uint64) { reports = append(reports, report{cycle, issued}) }
		res, err := sim.Run(cfg, mem.New(), []sim.Thread{{Prog: p.MustProgram()}, {Prog: c.MustProgram()}})
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		if res.Diagnosis == nil {
			t.Fatal("expected an unquiesced exit with a diagnosis")
		}
		return res.Cycles, res.Diagnosis.Cycle, res.Samples, reports
	}
	onCycles, onDiag, onSamples, onReports := run(false)
	offCycles, offDiag, offSamples, offReports := run(true)
	if len(offSamples) != int(offCycles/97) || len(offReports) != int(offCycles/101) {
		t.Fatalf("per-cycle run took %d samples and %d reports in %d cycles, want one per period",
			len(offSamples), len(offReports), offCycles)
	}
	if !reflect.DeepEqual(onSamples, offSamples) {
		t.Errorf("samples differ: %d with FF, %d without", len(onSamples), len(offSamples))
	}
	if !reflect.DeepEqual(onReports, offReports) {
		t.Errorf("progress reports differ:\n with FF %v\n without %v", onReports, offReports)
	}
	if onCycles != offCycles {
		t.Errorf("unquiesced exit at cycle %d with FF, %d without", onCycles, offCycles)
	}
	if onDiag != offDiag {
		t.Errorf("diagnosis cycle %d with FF, %d without", onDiag, offDiag)
	}
}
