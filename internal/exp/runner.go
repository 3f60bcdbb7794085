package exp

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hfstream/internal/design"
	"hfstream/internal/sim"
	"hfstream/internal/workloads"
)

// The runner fans independent (benchmark, design, variant) simulations
// across a goroutine pool. Every figure/table of the evaluation is a grid
// of jobs that share only read-only data — the benchmark cache's input
// and oracle images and the programs of each shape (oracle.go) — while
// each worker reads the benchmark's one shared instance and runs on its own
// fork of the input image and its own machine, so regeneration scales
// with cores while results stay in deterministic input order.

// Job is one simulation: a benchmark run on a design point, or (with
// Single) the single-threaded baseline on the EXISTING machine.
type Job struct {
	// Bench names the workload. Each job reads the benchmark's shared
	// instance (workloads.Shared) and runs on its own image fork and
	// machine; what concurrent jobs of one benchmark share, the instance,
	// its images and the programs of each shape, is read-only and built
	// once per process.
	Bench  string
	Config design.Config
	// Single runs the unpartitioned baseline; Config is ignored.
	Single bool
}

// Name labels the job for progress reports and warnings.
func (j Job) Name() string {
	if j.Single {
		return j.Bench + "/single"
	}
	return j.Bench + "/" + j.Config.Name()
}

// JobResult pairs a job with its outcome and wall-clock cost.
type JobResult struct {
	Job  Job
	Res  *sim.Result // nil when Err != nil
	Err  error
	Wall time.Duration
}

// Runner executes job lists on a worker pool.
type Runner struct {
	// Workers is the pool size: 0 means GOMAXPROCS, 1 reproduces the old
	// serial behaviour exactly.
	Workers int
	// Timeout caps each job's wall-clock time (0 = none); an expired job
	// fails with a *sim.CanceledError without disturbing its siblings.
	Timeout time.Duration
	// Progress, when set, is called after each job completes with the
	// number of finished jobs so far; calls are serialized. The result is
	// where a caller finds a job's machine diagnosis: Res.Diagnosis for an
	// unquiesced exit, a *sim.DeadlockError's Diag for a deadlock.
	Progress func(done, total int, r JobResult)

	// run overrides job execution (tests only; nil = runJob).
	run func(ctx context.Context, j Job) (*sim.Result, error)
}

// Run executes all jobs and returns their results in input order,
// regardless of completion order. Failed jobs carry their error in the
// corresponding slot; siblings are unaffected. Canceling ctx aborts
// in-flight simulations and fails not-yet-started jobs with ctx.Err().
// Execution happens on a throwaway Pool sized to the job list, so the
// batch harness and long-lived services (serve/) share one worker
// implementation.
func (r *Runner) Run(ctx context.Context, jobs []Job) []JobResult {
	results := make([]JobResult, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	exec := r.run
	if exec == nil {
		exec = runJob
	}

	var progressMu sync.Mutex
	done := 0 // guarded by progressMu, so Progress sees 1, 2, 3, ... in call order
	pool := NewPool(workers, len(jobs))
	for i := range jobs {
		// The pool is freshly created with room for every job, so
		// TrySubmit cannot fail here.
		pool.TrySubmit(func() {
			j := jobs[i]
			start := time.Now()
			var res *sim.Result
			err := ctx.Err()
			if err == nil {
				jctx := ctx
				var cancel context.CancelFunc
				if r.Timeout > 0 {
					jctx, cancel = context.WithTimeout(ctx, r.Timeout)
				}
				res, err = exec(jctx, j)
				if cancel != nil {
					cancel()
				}
			}
			results[i] = JobResult{Job: j, Res: res, Err: err, Wall: time.Since(start)}
			if r.Progress != nil {
				progressMu.Lock()
				done++
				r.Progress(done, len(jobs), results[i])
				progressMu.Unlock()
			}
		})
	}
	pool.Close()
	pool.Wait(context.Background())
	return results
}

// runJob executes one job on the benchmark's shared instance.
func runJob(ctx context.Context, j Job) (*sim.Result, error) {
	b, err := workloads.Shared(j.Bench)
	if err != nil {
		return nil, err
	}
	if j.Single {
		return RunSingleOpts(ctx, b, RunOpts{})
	}
	return RunBenchmarkOpts(ctx, b, j.Config, RunOpts{})
}

// FirstErr returns the first error in input order, or nil.
func FirstErr(results []JobResult) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// Package-level knobs let the CLIs tune every figure function without
// threading options through each call site.

var (
	defaultWorkers atomic.Int32 // 0 = GOMAXPROCS
	progressHook   atomic.Value // func(done, total int, r JobResult)
)

// SetParallelism sets the worker count used by the package-level figure
// and ablation functions (0 = GOMAXPROCS, 1 = serial).
func SetParallelism(n int) { defaultWorkers.Store(int32(n)) }

// Parallelism returns the current default worker count (0 = GOMAXPROCS).
func Parallelism() int { return int(defaultWorkers.Load()) }

// SetProgress installs a per-job completion callback for the package-level
// figure functions (nil disables).
func SetProgress(f func(done, total int, r JobResult)) { progressHook.Store(&f) }

// newRunner returns a Runner honoring the package-level knobs.
func newRunner() *Runner {
	r := &Runner{Workers: Parallelism()}
	if p, _ := progressHook.Load().(*func(done, total int, r JobResult)); p != nil {
		r.Progress = *p
	}
	return r
}

// runMatrix runs every (benchmark, config) pair of the full workload set
// on the default runner and returns results indexed [benchmark][config]
// in workloads.Names() x configs order.
func runMatrix(ctx context.Context, configs []design.Config) ([][]*sim.Result, error) {
	benches := workloads.Names()
	jobs := make([]Job, 0, len(benches)*len(configs))
	for _, name := range benches {
		for _, cfg := range configs {
			jobs = append(jobs, Job{Bench: name, Config: cfg})
		}
	}
	results := newRunner().Run(ctx, jobs)
	if err := FirstErr(results); err != nil {
		return nil, err
	}
	out := make([][]*sim.Result, len(benches))
	k := 0
	for bi := range benches {
		out[bi] = make([]*sim.Result, len(configs))
		for ci := range configs {
			out[bi][ci] = results[k].Res
			k++
		}
	}
	return out, nil
}
