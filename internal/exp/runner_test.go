package exp

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"hfstream/internal/design"
	"hfstream/internal/isa"
	"hfstream/internal/sim"
	"hfstream/internal/workloads"
)

// TestRunnerDeterministicOrder: a concurrent run must return the same
// results, in the same slots, as the serial run of the same job list.
func TestRunnerDeterministicOrder(t *testing.T) {
	var jobs []Job
	for _, bench := range []string{"wc", "fir"} {
		for _, cfg := range []design.Config{design.HeavyWTConfig(), design.SyncOptiConfig()} {
			jobs = append(jobs, Job{Bench: bench, Config: cfg})
		}
	}
	serial := (&Runner{Workers: 1}).Run(context.Background(), jobs)
	parallel := (&Runner{Workers: 4}).Run(context.Background(), jobs)
	if err := FirstErr(serial); err != nil {
		t.Fatal(err)
	}
	if err := FirstErr(parallel); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if serial[i].Job.Name() != jobs[i].Name() || parallel[i].Job.Name() != jobs[i].Name() {
			t.Errorf("slot %d: job order broken: serial=%s parallel=%s want %s",
				i, serial[i].Job.Name(), parallel[i].Job.Name(), jobs[i].Name())
		}
		if serial[i].Res.Cycles != parallel[i].Res.Cycles {
			t.Errorf("%s: serial %d cycles, parallel %d cycles",
				jobs[i].Name(), serial[i].Res.Cycles, parallel[i].Res.Cycles)
		}
	}
}

// TestRunnerCancellationMidFlight: canceling the context after the first
// completion fails the remaining jobs with ctx.Err() instead of hanging.
func TestRunnerCancellationMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	r := &Runner{
		Workers: 2,
		run: func(jctx context.Context, j Job) (*sim.Result, error) {
			if j.Bench == "first" {
				once.Do(cancel) // cancel as soon as the first job runs
				return &sim.Result{Cycles: 1}, nil
			}
			<-jctx.Done() // the rest park until canceled
			return nil, jctx.Err()
		},
	}
	jobs := []Job{{Bench: "first"}, {Bench: "second"}, {Bench: "third"}, {Bench: "fourth"}}
	finished := make(chan []JobResult, 1)
	go func() { finished <- r.Run(ctx, jobs) }()
	var results []JobResult
	select {
	case results = <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("runner did not return after cancellation")
	}
	if results[0].Err != nil {
		t.Errorf("first job failed: %v", results[0].Err)
	}
	for i := 1; i < len(results); i++ {
		if !errors.Is(results[i].Err, context.Canceled) {
			t.Errorf("job %d: err = %v, want context.Canceled", i, results[i].Err)
		}
	}
}

// TestRunnerTimeoutBoundsDeadlockedJob: a per-job timeout cancels a job
// that never finishes on its own.
func TestRunnerTimeoutBoundsDeadlockedJob(t *testing.T) {
	r := &Runner{
		Workers: 2,
		Timeout: 20 * time.Millisecond,
		run: func(jctx context.Context, j Job) (*sim.Result, error) {
			if j.Bench == "hang" {
				<-jctx.Done()
				return nil, &sim.CanceledError{Cycle: 42}
			}
			return &sim.Result{Cycles: 7}, nil
		},
	}
	results := r.Run(context.Background(), []Job{{Bench: "hang"}, {Bench: "ok"}})
	var ce *sim.CanceledError
	if !errors.As(results[0].Err, &ce) {
		t.Errorf("hung job err = %v, want CanceledError", results[0].Err)
	}
	if results[1].Err != nil || results[1].Res.Cycles != 7 {
		t.Errorf("sibling perturbed: %+v", results[1])
	}
}

// TestRunnerJobFailureDoesNotPoisonSiblings: one invalid design fails its
// own slot only, and FirstErr surfaces it.
func TestRunnerJobFailureDoesNotPoisonSiblings(t *testing.T) {
	bad := design.MemOptiConfig() // flagless software-queue layout: rejected
	bad.QueueDepth = 64
	bad.QLU = 16
	jobs := []Job{
		{Bench: "wc", Config: design.HeavyWTConfig()},
		{Bench: "wc", Config: bad},
		{Bench: "wc", Single: true},
	}
	results := (&Runner{Workers: 3}).Run(context.Background(), jobs)
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy jobs failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Error("invalid design accepted")
	}
	if FirstErr(results) != results[1].Err {
		t.Errorf("FirstErr = %v, want the bad job's error", FirstErr(results))
	}
}

// TestRunnerUnknownBenchmarkFails: a bogus benchmark name is an error, not
// a panic.
func TestRunnerUnknownBenchmarkFails(t *testing.T) {
	results := (&Runner{Workers: 1}).Run(context.Background(),
		[]Job{{Bench: "no-such-bench", Config: design.HeavyWTConfig()}})
	if results[0].Err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	// The error is the catalog's, and the name never enters the cache.
	if _, want := workloads.ByName("no-such-bench"); results[0].Err.Error() != want.Error() {
		t.Errorf("error %q, want %q", results[0].Err, want)
	}
	benchCache.Lock()
	_, cached := benchCache.m["no-such-bench"]
	benchCache.Unlock()
	if cached {
		t.Error("an unknown benchmark has a cache entry")
	}
}

// TestOracleRunsOncePerBenchmark: the memoized cache must run the
// functional interpreter exactly once per benchmark no matter how many
// simulations verify against it.
func TestOracleRunsOncePerBenchmark(t *testing.T) {
	resetBenchCache()
	defer resetBenchCache()
	b, err := workloads.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunBenchmarkOpts(context.Background(), b, design.HeavyWTConfig(), RunOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunBenchmarkOpts(context.Background(), b, design.SyncOptiConfig(), RunOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunSingleOpts(context.Background(), b, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	if n := oracleRuns.Load(); n != 1 {
		t.Errorf("interpreter ran %d times for one benchmark, want 1", n)
	}
	// A second benchmark costs exactly one more run.
	fir, err := workloads.ByName("fir")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSingleOpts(context.Background(), fir, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	if n := oracleRuns.Load(); n != 2 {
		t.Errorf("interpreter ran %d times for two benchmarks, want 2", n)
	}
}

// TestOracleCacheConcurrent hammers Expected from many goroutines (run
// under -race): one interpreter execution, one shared image, no races.
func TestOracleCacheConcurrent(t *testing.T) {
	resetBenchCache()
	defer resetBenchCache()
	b, err := workloads.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	imgs := make([]uint64, n) // first output word seen by each goroutine
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			img, err := Expected(b)
			if err != nil {
				t.Error(err)
				return
			}
			imgs[i] = img.Read8(b.Out.Base)
		}(i)
	}
	wg.Wait()
	if n := oracleRuns.Load(); n != 1 {
		t.Errorf("interpreter ran %d times under contention, want 1", n)
	}
	for i := 1; i < n; i++ {
		if imgs[i] != imgs[0] {
			t.Fatalf("goroutine %d saw different oracle output", i)
		}
	}
}

// TestPlanRunsOncePerShape: the cache partitions each benchmark shape
// once however many simulations run it, concurrently or not. The seven
// dual-core designs of wc share one plan, the baseline makes a second,
// and a shape the benchmark cannot take is refused from the cache with
// the error it was refused with the first time.
func TestPlanRunsOncePerShape(t *testing.T) {
	resetBenchCache()
	defer resetBenchCache()
	var jobs []Job
	for _, cfg := range design.StandardConfigs() {
		jobs = append(jobs, Job{Bench: "wc", Config: cfg})
	}
	if err := FirstErr((&Runner{Workers: len(jobs)}).Run(context.Background(), jobs)); err != nil {
		t.Fatal(err)
	}
	if n := planRuns.Load(); n != 1 {
		t.Errorf("seven concurrent designs of one shape planned %d times, want 1", n)
	}
	if err := FirstErr((&Runner{Workers: 1}).Run(context.Background(), []Job{{Bench: "wc", Single: true}})); err != nil {
		t.Fatal(err)
	}
	if n := planRuns.Load(); n != 2 {
		t.Errorf("wc's pipeline and baseline planned %d times, want 2", n)
	}
	for _, c := range []struct {
		bench string
		cfg   design.Config
	}{
		{"bzip2", design.HeavyWTConfig().WithCores(3)}, // hand-partitioned
		{"epicdec", design.HeavyWTConfig().WithCores(8)},
	} {
		b, err := workloads.ByName(c.bench)
		if err != nil {
			t.Fatal(err)
		}
		before := planRuns.Load()
		_, first := plan(b, c.cfg)
		_, second := plan(b, c.cfg)
		if first == nil || second != first {
			t.Errorf("%s/%s: errors %v then %v, want one error twice", c.bench, c.cfg.Name(), first, second)
		}
		if n := planRuns.Load() - before; n != 1 {
			t.Errorf("%s/%s: planned %d times, want 1", c.bench, c.cfg.Name(), n)
		}
	}
}

// programsDigest hashes every field of every instruction of progs, in
// order.
func programsDigest(progs []*isa.Program) uint64 {
	h := fnv.New64a()
	for _, p := range progs {
		fmt.Fprintf(h, "%s %d\n", p.Name, len(p.Instrs))
		for _, in := range p.Instrs {
			fmt.Fprintf(h, "%d %d %d %d %d %d %t\n", in.Op, in.Rd, in.Ra, in.Rb, in.Imm, in.Q, in.Comm)
		}
	}
	return h.Sum64()
}

// TestPlansStayReadOnly is the licence for sharing one plan among every
// run of its shape: after the 63 dual-core cells and the parallel-stage
// family at 3, 4 and 6 cores (software-queue lowering, SYNCOPTI's queue
// controller, the synchronization array, replicated workers) have run on
// the cached programs through the parallel Runner, every program in the
// cache — theirs and any other test's — still reads as a fresh partition
// of its shape. A cell a catalog row already ran is not run again: it ran
// on the same cached programs, on the same kind of runner. Under -race a
// write to a shared program is also a reported race.
func TestPlansStayReadOnly(t *testing.T) {
	jobs := paperCells()
	for _, name := range workloads.Names() {
		for _, k := range []int{3, 4, 6} {
			jobs = append(jobs, Job{Bench: name, Config: design.MPMCQ64Config().WithCores(k)})
		}
	}
	var todo []Job
	for _, j := range jobs {
		b, err := workloads.ByName(j.Bench)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan(b, j.Config); err != nil {
			continue // a shape the kernel cannot fill
		}
		if _, ok := catalogRun(j); !ok {
			todo = append(todo, j)
		}
	}
	if err := FirstErr((&Runner{Workers: 4}).Run(context.Background(), todo)); err != nil {
		t.Fatal(err)
	}
	benchCache.Lock()
	defer benchCache.Unlock()
	shapes := 0
	for name, e := range benchCache.m {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for n := range e.plans {
			for shape := range e.plans[n] {
				cached := e.plans[n][shape].progs
				if cached == nil {
					continue // never planned, or refused
				}
				fresh, err := partition(b, n, shape == 1)
				if err != nil {
					t.Fatal(err)
				}
				if programsDigest(cached) != programsDigest(fresh) {
					t.Errorf("%s, %d cores, parallel %t: the cached programs no longer match a fresh partition", name, n, shape == 1)
				}
				shapes++
			}
		}
	}
	if shapes == 0 {
		t.Fatal("no cached plan to check")
	}
	t.Logf("%d cells run, %d cached shapes checked", len(todo), shapes)
}

// TestRunnerProgressReporting: the progress callback sees every job
// exactly once with a monotonically increasing done count.
func TestRunnerProgressReporting(t *testing.T) {
	var mu sync.Mutex
	var dones []int
	seen := map[string]bool{}
	r := &Runner{
		Workers: 4,
		Progress: func(done, total int, jr JobResult) {
			mu.Lock()
			defer mu.Unlock()
			if total != 4 {
				t.Errorf("total = %d, want 4", total)
			}
			dones = append(dones, done)
			seen[jr.Job.Name()] = true
			if jr.Wall < 0 {
				t.Error("negative wall time")
			}
		},
		run: func(ctx context.Context, j Job) (*sim.Result, error) {
			return &sim.Result{Cycles: 1}, nil
		},
	}
	jobs := []Job{{Bench: "a"}, {Bench: "b"}, {Bench: "c"}, {Bench: "d"}}
	r.Run(context.Background(), jobs)
	if len(dones) != 4 || len(seen) != 4 {
		t.Fatalf("progress calls = %d over %d jobs, want 4 over 4", len(dones), len(seen))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Errorf("done sequence %v not monotonic", dones)
			break
		}
	}
}

// TestRunMatrixShape: the matrix helper preserves the benchmark x config
// grid shape and order.
func TestRunMatrixShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full benchmark set")
	}
	configs := []design.Config{design.HeavyWTConfig(), design.SyncOptiConfig()}
	grid, err := runMatrix(context.Background(), configs)
	if err != nil {
		t.Fatal(err)
	}
	benches := workloads.All()
	if len(grid) != len(benches) {
		t.Fatalf("rows = %d, want %d", len(grid), len(benches))
	}
	for bi, row := range grid {
		if len(row) != len(configs) {
			t.Fatalf("row %d: cols = %d, want %d", bi, len(row), len(configs))
		}
		for ci, res := range row {
			if res == nil || res.Cycles == 0 {
				t.Errorf("%s/%s: missing result", benches[bi].Name, configs[ci].Name())
			}
		}
	}
}

// TestRunnerSerialMatchesLegacyPath: Workers=1 through the runner equals a
// direct RunBenchmark call (the old serial code path).
func TestRunnerSerialMatchesLegacyPath(t *testing.T) {
	b, err := workloads.ByName("fir")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunBenchmarkOpts(context.Background(), b, design.HeavyWTConfig(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	results := (&Runner{Workers: 1}).Run(context.Background(),
		[]Job{{Bench: "fir", Config: design.HeavyWTConfig()}})
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	if results[0].Res.Cycles != direct.Cycles {
		t.Errorf("runner %d cycles, direct %d", results[0].Res.Cycles, direct.Cycles)
	}
}

// TestWarnHookReceivesUnquiescedExit: a result carrying an unquiesced
// Diagnosis reaches the progress observer once, as a success with the
// job's name, so hfexp can print its warning.
func TestWarnHookReceivesUnquiescedExit(t *testing.T) {
	var seen []JobResult // Progress calls are serialized
	SetProgress(func(_, _ int, jr JobResult) { seen = append(seen, jr) })
	defer SetProgress(nil)
	r := newRunner()
	r.Workers = 1
	r.run = func(ctx context.Context, j Job) (*sim.Result, error) {
		return &sim.Result{Cycles: 9, Diagnosis: &sim.Diagnosis{Reason: "junk"}}, nil
	}
	r.Run(context.Background(), []Job{{Bench: "wc", Config: design.HeavyWTConfig()}})
	if len(seen) != 1 {
		t.Fatalf("observer calls = %d, want 1", len(seen))
	}
	jr := seen[0]
	if want := "wc/HEAVYWT"; jr.Job.Name() != want {
		t.Errorf("observed job %q, want %q", jr.Job.Name(), want)
	}
	if jr.Err != nil || jr.Res == nil || jr.Res.Diagnosis == nil || jr.Res.Diagnosis.Reason != "junk" {
		t.Errorf("observed result %+v (err %v), want a success carrying the unquiesced diagnosis", jr.Res, jr.Err)
	}
}
