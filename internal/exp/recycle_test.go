package exp

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"hfstream/fault"
	"hfstream/internal/design"
	"hfstream/internal/mem"
	"hfstream/internal/queue"
	"hfstream/internal/sim"
	"hfstream/internal/workloads"
)

// A run starts from storage other runs have used: a copy-on-write fork of
// its benchmark's input image and cache arrays the previous simulation
// released. These tests are the licence for that: whatever ran before, and
// however it ended, a cell's metrics are the bytes a fresh process gives.

type cell struct {
	bench string
	cfg   design.Config
}

// recycleCells is the paper's 63 dual-core cells plus six N-core cells whose
// shapes scaling.txt pins: a six-core run recycles 13 arrays of three
// geometries, a dual-core run five.
func recycleCells() []cell {
	var cells []cell
	for _, name := range workloads.Names() {
		for _, cfg := range design.StandardConfigs() {
			cells = append(cells, cell{name, cfg})
		}
	}
	for _, name := range []string{"fft2", "equake"} {
		cells = append(cells,
			cell{name, design.HeavyWTConfig().WithCores(4)},
			cell{name, design.SyncOptiSCQ64Config().WithCores(3)},
			cell{name, design.MPMCQ64Config().WithCores(6)})
	}
	return cells
}

// metricsBytes runs one cell and returns its annotated metrics snapshot,
// the bytes hfexp -metrics writes and testdata/golden pins.
func metricsBytes(t *testing.T, c cell, opts RunOpts) []byte {
	t.Helper()
	b, err := workloads.ByName(c.bench)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBenchmarkOpts(context.Background(), b, c.cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics()
	m.Benchmark, m.Design = c.bench, c.cfg.Name()
	buf, err := sim.MetricsJSON(m)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestRunsAreOrderIndependent runs every cell in two seeded shuffles, with
// fast-forward on and off, in one process: each cell meets arrays and page
// tables a different predecessor left behind, and must report the same
// bytes every time. (The goldens anchor the values themselves.)
func TestRunsAreOrderIndependent(t *testing.T) {
	cells := recycleCells()
	first := make([][]byte, len(cells))
	for _, noFF := range []bool{false, true} {
		for seed := int64(1); seed <= 2; seed++ {
			for _, i := range rand.New(rand.NewSource(seed)).Perm(len(cells)) {
				got := metricsBytes(t, cells[i], RunOpts{DisableFastForward: noFF})
				if first[i] == nil {
					first[i] = got
				} else if !bytes.Equal(got, first[i]) {
					t.Fatalf("%s/%s (shuffle %d, no fast-forward %v) differs from its first run:\n%s\nfirst:\n%s",
						cells[i].bench, cells[i].cfg.Name(), seed, noFF, got, first[i])
				}
			}
		}
	}
}

// TestFailedRunsRecycleCleanly: sim.Run releases its arrays on every exit,
// so a run that ends in a deadlock, a cancellation or a rejected
// configuration — each with warmed, half-used caches — must leave nothing
// behind that the next run can see. The next run is a golden cell.
func TestFailedRunsRecycleCleanly(t *testing.T) {
	wc, err := workloads.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	failures := []struct {
		name string
		fail func()
		then cell
	}{
		{"deadlock", func() {
			// The chaos corpus's first loss-class plan (seed 1, plan 1:
			// chaos.PlanForIndex): the third sync-array delivery is dropped.
			_, err := RunBenchmarkOpts(context.Background(), wc, design.HeavyWTConfig(),
				RunOpts{Faults: fault.RandomLoss(1*1000 + 1).Injector()})
			var dl *sim.DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("loss plan: error %v, want a DeadlockError", err)
			}
		}, cell{"bzip2", design.HeavyWTConfig()}},
		{"cancel", func() {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := RunBenchmarkOpts(ctx, wc, design.ExistingConfig(),
				RunOpts{Progress: func(uint64, uint64) { cancel() }, ProgressEvery: 2000})
			var ce *sim.CanceledError
			if !errors.As(err, &ce) || ce.Cycle < 2000 {
				t.Fatalf("canceled mid-flight: error %v, want a CanceledError past cycle 2000", err)
			}
		}, cell{"adpcmdec", design.SyncOptiConfig()}},
		{"sync array rejected", func() {
			// Past validate, past the fabric and its preload; NewSyncArray
			// then refuses the unsorted route.
			cfg := design.HeavyWTConfig()
			progs, err := plan(wc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			threads := make([]sim.Thread, len(progs))
			for i, p := range progs {
				threads[i] = sim.Thread{Prog: p}
			}
			e := images(wc.Name)
			if e.err != nil {
				t.Fatal(e.err)
			}
			simCfg := cfg.SimConfig()
			simCfg.Preload = wc.InputRegions
			simCfg.SA.MPMC = map[int]queue.MPMCRoute{0: {Producers: []int{1, 0}, Consumers: []int{1}}}
			_, err = sim.Run(simCfg, e.base.Fork(), threads)
			var ve *sim.ValidationError
			if !errors.As(err, &ve) || !strings.Contains(err.Error(), "ascending") {
				t.Fatalf("unsorted MPMC route: error %v, want NewSyncArray's ValidationError", err)
			}
		}, cell{"bzip2", design.SyncOptiSCQ64Config()}},
	}
	for _, f := range failures {
		f.fail()
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden",
			MetricsFileName(f.then.bench, f.then.cfg.Name())))
		if err != nil {
			t.Fatal(err)
		}
		if got := metricsBytes(t, f.then, RunOpts{}); !bytes.Equal(got, want) {
			t.Errorf("after a %s, %s/%s is not its golden:\n%s", f.name, f.then.bench, f.then.cfg.Name(), got)
		}
	}
}

// imageDigest hashes every word of the regions, in order.
func imageDigest(m *mem.Memory, regions ...mem.Region) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range regions {
		for a := r.Base; a < r.End(); a += 8 {
			binary.LittleEndian.PutUint64(buf[:], m.Read8(a))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestConcurrentRunsLeaveBaseImageUntouched: four workers fork and run mcf
// (the largest image) on all seven designs at once, twice. No write may
// reach a page the base image owns — under -race an aliased write is a
// reported race, and without it the base's digest over the benchmark's
// regions and the queue region still has to read the same afterwards.
func TestConcurrentRunsLeaveBaseImageUntouched(t *testing.T) {
	b, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	e := images(b.Name)
	if e.err != nil {
		t.Fatal(e.err)
	}
	layout := design.ExistingConfig().Layout()
	regions := append(append([]mem.Region(nil), b.InputRegions...), b.Out,
		mem.Region{Name: "queues", Base: queue.Base, Size: layout.RegionEnd() - queue.Base})
	baseBefore, oracleBefore := imageDigest(e.base, regions...), imageDigest(e.img, regions...)
	if baseBefore == oracleBefore {
		t.Fatal("the oracle image equals the input image: the digest does not see mcf's output")
	}
	var jobs []Job
	for i := 0; i < 2; i++ {
		for _, cfg := range design.StandardConfigs() {
			jobs = append(jobs, Job{Bench: b.Name, Config: cfg})
		}
	}
	if err := FirstErr((&Runner{Workers: 4}).Run(context.Background(), jobs)); err != nil {
		t.Fatal(err)
	}
	if got := imageDigest(e.base, regions...); got != baseBefore {
		t.Errorf("base image digest %#x after 14 concurrent runs, was %#x", got, baseBefore)
	}
	if got := imageDigest(e.img, regions...); got != oracleBefore {
		t.Errorf("oracle image digest %#x after 14 concurrent runs, was %#x", got, oracleBefore)
	}
}

// TestRunAllocationCeiling pins the gain as a regression: in steady state a
// run allocates the pages it writes and its small machine objects, not its
// input image (mcf: 6.1 MiB rebuilt per run before the images were forked)
// and not its tag arrays (528 KiB per dual-core machine before they were
// recycled).
func TestRunAllocationCeiling(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates, and its sync.Pool drops a quarter of what it is given")
	}
	cells := recycleCells()[:63]
	pass := func(cells []cell) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, c := range cells {
			b, err := workloads.ByName(c.bench)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunBenchmarkOpts(context.Background(), b, c.cfg, RunOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(len(cells))
	}
	pass(cells) // warm: base images, oracles, one set of arrays
	if got := pass(cells) >> 10; got > 250 {
		t.Errorf("the 63 dual-core cells allocate %d KiB per run on average, want at most 250", got)
	}
	mcf := make([]cell, 8)
	for i := range mcf {
		mcf[i] = cell{"mcf", design.ExistingConfig()}
	}
	if got := pass(mcf) >> 10; got > 256 {
		t.Errorf("mcf/EXISTING allocates %d KiB per run, want at most 256", got)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, set := range bi.Settings {
			if set.Key == "-race" && set.Value == "true" {
				return true
			}
		}
	}
	return false
}
