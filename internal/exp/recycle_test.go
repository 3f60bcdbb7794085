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
	"hfstream/trace"
)

// A run starts from storage other runs have used: a copy-on-write fork of
// its benchmark's input image and cache arrays the previous simulation
// released. These tests are the licence for that: whatever ran before, and
// however it ended, a cell's metrics are the bytes a fresh process gives.

// paperCells is the paper's 63 dual-core cells: every benchmark on every
// standard design.
func paperCells() []Job {
	var cells []Job
	for _, name := range workloads.Names() {
		for _, cfg := range design.StandardConfigs() {
			cells = append(cells, Job{Bench: name, Config: cfg})
		}
	}
	return cells
}

// determinismCells is every cell tier-1 runs in both kernels: the paper's
// dual-core cells, each benchmark's single-threaded baseline, the ncore
// benchmark's grid (seven IR kernels x the two chain families and the
// parallel-stage family x 3, 4 and 6 cores) and fft2 and equake at 8
// cores — 141 cells. Without all, the N-core cells shrink to six whose
// shapes scaling.txt pins (a six-core run recycles 13 arrays of three
// geometries, a dual-core run five): one family per core count for fft2
// and equake.
func determinismCells(all bool) []Job {
	cells := paperCells()
	for _, name := range workloads.Names() {
		cells = append(cells, Job{Bench: name, Single: true})
	}
	families := []design.Config{design.SyncOptiSCQ64Config(), design.HeavyWTConfig(), design.MPMCQ64Config()}
	for _, name := range []string{"art", "equake", "adpcmdec", "epicdec", "wc", "fir", "fft2"} {
		wide := name == "fft2" || name == "equake"
		cores := []int{3, 4, 6}
		if wide {
			cores = append(cores, 8)
		}
		for f, family := range families {
			for i, k := range cores {
				if all || wide && i == f {
					cells = append(cells, Job{Bench: name, Config: family.WithCores(k)})
				}
			}
		}
	}
	return cells
}

// metricsBytes runs one cell and returns its annotated metrics snapshot,
// the bytes hfexp -metrics writes and testdata/golden pins.
func metricsBytes(t *testing.T, j Job, opts RunOpts) []byte {
	t.Helper()
	b, err := workloads.ByName(j.Bench)
	if err != nil {
		t.Fatal(err)
	}
	var res *sim.Result
	if j.Single {
		res, err = RunSingleOpts(context.Background(), b, opts)
	} else {
		res, err = RunBenchmarkOpts(context.Background(), b, j.Config, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return snapshotBytes(t, j, res)
}

// snapshotBytes is the annotated metrics snapshot of j's result res.
func snapshotBytes(t *testing.T, j Job, res *sim.Result) []byte {
	t.Helper()
	label := "single"
	if !j.Single {
		label = j.Config.Name()
	}
	m := res.Metrics()
	m.Benchmark, m.Design = j.Bench, label
	buf, err := sim.MetricsJSON(m)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// batteryRun is one determinism cell's snapshot in each kernel.
type batteryRun struct {
	cell         Job
	ff, perCycle []byte
}

// battery holds the determinism battery once determinism has run it.
var battery []batteryRun

// determinism is the two-kernel determinism battery, run once per test
// binary: every cell twice in one process, fast-forwarding in one seeded
// shuffle and per-cycle in another, so each run meets arrays and page
// tables a different predecessor left behind, in a different kernel. A
// cell a catalog row already ran (the dual-core matrix, the baselines and
// the N-core cells the scaling rows share) takes that run as its
// fast-forwarded half: the catalog's parallel runner gave it yet another
// predecessor. Under -short and -race the N-core cells shrink to six.
func determinism(t *testing.T) []batteryRun {
	t.Helper()
	if battery != nil {
		return battery
	}
	cells := determinismCells(!testing.Short() && !raceEnabled())
	runs := make([]batteryRun, len(cells))
	for _, i := range rand.New(rand.NewSource(1)).Perm(len(cells)) {
		runs[i].cell = cells[i]
		if r, ok := catalogRun(cells[i]); ok {
			runs[i].ff = snapshotBytes(t, cells[i], r.Res)
		} else {
			runs[i].ff = metricsBytes(t, cells[i], RunOpts{})
		}
	}
	for _, i := range rand.New(rand.NewSource(2)).Perm(len(cells)) {
		runs[i].perCycle = metricsBytes(t, cells[i], RunOpts{DisableFastForward: true})
	}
	battery = runs
	return runs
}

// checkKernelsAgree fails for every battery cell keep selects whose
// per-cycle snapshot differs from its fast-forwarded one.
func checkKernelsAgree(t *testing.T, keep func(Job) bool) {
	t.Helper()
	checked := 0
	for _, r := range determinism(t) {
		if !keep(r.cell) {
			continue
		}
		checked++
		if !bytes.Equal(r.perCycle, r.ff) {
			t.Errorf("%s: per-cycle run differs from the fast-forwarded one:\n%s\nfast-forwarded:\n%s",
				r.cell.Name(), r.perCycle, r.ff)
		}
	}
	if checked == 0 {
		t.Fatal("no battery cell selected")
	}
}

// nCore reports whether a cell runs on more than the paper's two cores.
func nCore(j Job) bool { return !j.Single && j.Config.Cores > 2 }

// TestRunsAreOrderIndependent: the battery's dual-core and single-threaded
// cells report the same bytes in both kernels, whatever ran before them.
// (The goldens anchor the values themselves.)
func TestRunsAreOrderIndependent(t *testing.T) {
	checkKernelsAgree(t, func(j Job) bool { return !nCore(j) })
}

// TestNCoreGridFastForwardDifferential: the battery's N-core cells — the
// grid the ncore benchmark runs plus fft2 and equake at 8 cores — report
// the same bytes in both kernels. Most of their core cycles are a queue
// operation the sync array or the OzQ refuses, which Core.Replay charges
// without a Tick.
func TestNCoreGridFastForwardDifferential(t *testing.T) {
	checkKernelsAgree(t, nCore)
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
		then Job
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
		}, Job{Bench: "bzip2", Config: design.HeavyWTConfig()}},
		{"cancel", func() {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := RunBenchmarkOpts(ctx, wc, design.ExistingConfig(),
				RunOpts{Progress: func(uint64, uint64) { cancel() }, ProgressEvery: 2000})
			var ce *sim.CanceledError
			if !errors.As(err, &ce) || ce.Cycle < 2000 {
				t.Fatalf("canceled mid-flight: error %v, want a CanceledError past cycle 2000", err)
			}
		}, Job{Bench: "adpcmdec", Config: design.SyncOptiConfig()}},
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
		}, Job{Bench: "bzip2", Config: design.SyncOptiSCQ64Config()}},
	}
	for _, f := range failures {
		f.fail()
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden",
			MetricsFileName(f.then.Bench, f.then.Config.Name())))
		if err != nil {
			t.Fatal(err)
		}
		if got := metricsBytes(t, f.then, RunOpts{}); !bytes.Equal(got, want) {
			t.Errorf("after a %s, %s is not its golden:\n%s", f.name, f.then.Name(), got)
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
// input image (mcf: 6.1 MiB rebuilt per run before the images were forked),
// not its tag arrays (528 KiB per dual-core machine before they were
// recycled), not a 32 KiB page per block it writes (107 and 119 KiB
// before the pages shrank to 4 KiB), and not stream state for queues its
// programs never name or a token slab for a machine far larger than its
// own (58 KiB for the dual-core cells and 78 for mcf before both were
// sized by use). A traced run allocates a fresh trace ring, and with it
// 24 bytes an event, not 40 (2 653 KiB for adpcmdec before the ring's
// record shrank). Each ceiling is about 20% over the figure measured when
// it was set, given beside it; a garbage collection that empties the
// array pool adds a few KiB to a pass.
func TestRunAllocationCeiling(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates, and its sync.Pool drops a quarter of what it is given")
	}
	cells := paperCells()
	pass := func(cells []Job, traced bool) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, c := range cells {
			b, err := workloads.ByName(c.Bench)
			if err != nil {
				t.Fatal(err)
			}
			var opts RunOpts
			if traced {
				opts.Trace = trace.NewSink()
			}
			if _, err := RunBenchmarkOpts(context.Background(), b, c.Config, opts); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(len(cells))
	}
	// Warm the images, oracles, plans and one set of arrays, unless the
	// catalog's rows already ran every cell in this process.
	for _, c := range cells {
		if _, ok := catalogRun(c); !ok {
			pass(cells, false)
			break
		}
	}
	if got := pass(cells, false) >> 10; got > 51 { // measured 42
		t.Errorf("the 63 dual-core cells allocate %d KiB per run on average, want at most 51", got)
	}
	for _, c := range []struct {
		bench   string
		cfg     design.Config
		traced  bool
		ceiling uint64
	}{
		{"mcf", design.ExistingConfig(), false, 76},                     // measured 63
		{"fft2", design.HeavyWTConfig().WithCores(4), false, 48},        // measured 40
		{"fft2", design.SyncOptiSCQ64Config().WithCores(6), false, 154}, // measured 128
		{"equake", design.MPMCQ64Config().WithCores(6), false, 72},      // measured 60
		{"adpcmdec", design.SyncOptiConfig(), true, 1886},               // measured 1572
	} {
		runs := make([]Job, 8)
		for i := range runs {
			runs[i] = Job{Bench: c.bench, Config: c.cfg}
		}
		pass(runs[:1], c.traced) // warm: images, plan, one set of arrays
		if got := pass(runs, c.traced) >> 10; got > c.ceiling {
			t.Errorf("%s/%s allocates %d KiB per run, want at most %d", c.bench, c.cfg.Name(), got, c.ceiling)
		}
	}
}

// TestRunObjectAllocationCeiling counts the objects a warm run allocates:
// the machine it simulates on and the pages it writes, not the programs
// it runs (the benchmark cache plans each shape once) and not one array
// per MEMOPTI write-forward (the forward queue reuses its own). Each
// ceiling is about 20% over the count measured when it was set, given
// beside it.
func TestRunObjectAllocationCeiling(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates, and its sync.Pool drops a quarter of what it is given")
	}
	for _, c := range []struct {
		bench   string
		cfg     design.Config
		ceiling float64
	}{
		{"wc", design.SyncOptiConfig(), 132},                     // measured 110
		{"mcf", design.ExistingConfig(), 132},                    // measured 110
		{"fir", design.MemOptiConfig(), 162},                     // measured 135
		{"fft2", design.HeavyWTConfig().WithCores(4), 122},       // measured 102
		{"fft2", design.SyncOptiSCQ64Config().WithCores(6), 506}, // measured 422
		{"equake", design.MPMCQ64Config().WithCores(6), 203},     // measured 169
	} {
		b, err := workloads.ByName(c.bench)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := RunBenchmarkOpts(context.Background(), b, c.cfg, RunOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: images, plan, one set of arrays
		if got := testing.AllocsPerRun(4, run); got > c.ceiling {
			t.Errorf("%s/%s allocates %.0f objects per run, want at most %.0f", c.bench, c.cfg.Name(), got, c.ceiling)
		}
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
