package workloads_test

import (
	"context"
	"testing"

	"hfstream/internal/design"
	"hfstream/internal/exp"
	"hfstream/internal/lower"
	"hfstream/internal/workloads"
)

// TestCommunicationFrequencyBand checks the paper's headline workload
// characterization: pipelined streaming threads communicate once every
// ~5-20 dynamic application instructions (wc is tighter; memory-bound
// mcf's producer is tighter still).
func TestCommunicationFrequencyBand(t *testing.T) {
	for _, b := range workloads.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			res, err := exp.RunBenchmarkOpts(context.Background(), b, design.HeavyWTConfig(), exp.RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			for core := 0; core < 2; core++ {
				r := res.CommRatio(core)
				if r <= 0 {
					t.Fatalf("core %d has no communication", core)
				}
				per := 1 / r
				if per < 1.5 || per > 25 {
					t.Errorf("core %d communicates once per %.1f app instrs, outside (1.5, 25)", core, per)
				}
			}
		})
	}
}

// TestTable1Metadata checks the static benchmark inventory.
func TestTable1Metadata(t *testing.T) {
	suites := map[string]int{}
	for _, b := range workloads.All() {
		suites[b.Suite]++
		if b.ExecPct <= 0 || b.ExecPct > 100 {
			t.Errorf("%s: bad exec%%: %d", b.Name, b.ExecPct)
		}
		if len(b.InputRegions) == 0 {
			t.Errorf("%s: no input regions for cache warming", b.Name)
		}
		found := false
		for _, r := range b.InputRegions {
			if r.Base == b.Out.Base {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: output region not in input regions", b.Name)
		}
	}
	if suites["StreamIt"] != 2 {
		t.Errorf("want 2 StreamIt benchmarks, got %d", suites["StreamIt"])
	}
	if suites["SPEC CINT2000"]+suites["SPEC CFP2000"] != 4 {
		t.Errorf("want 4 SPEC benchmarks")
	}
}

// TestAllBenchmarksLowerCleanly: every pipelined kernel must survive the
// software-queue lowering used by EXISTING/MEMOPTI.
func TestAllBenchmarksLowerCleanly(t *testing.T) {
	layout := design.ExistingConfig().Layout()
	for _, b := range workloads.All() {
		threads, queues, err := b.Pipelined()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if queues > layout.NumQueues {
			t.Fatalf("%s: uses %d queues, layout has %d", b.Name, queues, layout.NumQueues)
		}
		for i, th := range threads {
			lp, err := lower.Lower(th, layout)
			if err != nil {
				t.Fatalf("%s thread %d: %v", b.Name, i, err)
			}
			if err := lp.Validate(layout.NumQueues); err != nil {
				t.Fatalf("%s thread %d: lowered program invalid: %v", b.Name, i, err)
			}
		}
	}
}

// TestMemoryBehaviourCharacterization: mcf must be memory-bound, and the
// small kernels must not touch main memory at all after warming.
func TestMemoryBehaviourCharacterization(t *testing.T) {
	mcf, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.RunBenchmarkOpts(context.Background(), mcf, design.HeavyWTConfig(), exp.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemAccesses < 500 {
		t.Errorf("mcf made only %d memory accesses; its pool should exceed the L3", res.MemAccesses)
	}
	if share := res.Breakdowns[0].Share(4); share < 0.5 { // stats.Mem
		t.Errorf("mcf producer MEM share = %.2f, want memory-bound", share)
	}

	wc, err := workloads.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	res, err = exp.RunBenchmarkOpts(context.Background(), wc, design.HeavyWTConfig(), exp.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemAccesses > 50 {
		t.Errorf("wc made %d memory accesses; its working set fits the caches", res.MemAccesses)
	}
}

// TestSyncOptiVariantsAgreeFunctionally: all SYNCOPTI variants produce
// identical (oracle-verified) outputs — the optimizations change timing
// only.
func TestSyncOptiVariantsAgreeFunctionally(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several designs")
	}
	b, err := workloads.ByName("fft2")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []design.Config{
		design.SyncOptiConfig(), design.SyncOptiQ64Config(),
		design.SyncOptiSCConfig(), design.SyncOptiSCQ64Config(),
	} {
		if _, err := exp.RunBenchmarkOpts(context.Background(), b, cfg, exp.RunOpts{}); err != nil {
			t.Errorf("%s: %v", cfg.Name(), err)
		}
	}
}

// TestStreamCacheActuallyHits: the SC variant must service most consumes
// from the stream cache.
func TestStreamCacheActuallyHits(t *testing.T) {
	b, err := workloads.ByName("epicdec")
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.RunBenchmarkOpts(context.Background(), b, design.SyncOptiSCConfig(), exp.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	hits := res.SCHits[0] + res.SCHits[1]
	if hits < uint64(b.Iterations)/2 {
		t.Errorf("stream cache hits = %d over %d iterations", hits, b.Iterations)
	}
	// And the SC design must beat plain SYNCOPTI.
	plain, err := exp.RunBenchmarkOpts(context.Background(), b, design.SyncOptiConfig(), exp.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles >= plain.Cycles {
		t.Errorf("SC (%d cycles) should beat plain SYNCOPTI (%d)", res.Cycles, plain.Cycles)
	}
}

// TestWriteForwardingActive: MEMOPTI must actually forward lines for at
// least some benchmarks (decoupled ones).
func TestWriteForwardingActive(t *testing.T) {
	total := uint64(0)
	for _, name := range []string{"adpcmdec", "epicdec", "fir"} {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exp.RunBenchmarkOpts(context.Background(), b, design.MemOptiConfig(), exp.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		total += res.WrFwds[0] + res.WrFwds[1]
	}
	if total == 0 {
		t.Error("MEMOPTI never forwarded a line")
	}
}
