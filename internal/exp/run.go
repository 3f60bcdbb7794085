// Package exp is the experiment harness: it runs benchmarks on design
// points and regenerates every table and figure of the paper's evaluation
// (Tables 1-2, Figures 3 and 6-12). Each experiment returns structured
// rows plus a rendered text table so the command-line tools, tests and
// Go benchmarks share one implementation. Independent simulations are
// fanned out across a worker pool (see runner.go) and verified against a
// memoized functional-interpreter oracle (see oracle.go).
package exp

import (
	"context"
	"fmt"

	"hfstream/fault"
	"hfstream/internal/design"
	"hfstream/internal/dswp"
	"hfstream/internal/isa"
	"hfstream/internal/lower"
	"hfstream/internal/mem"
	"hfstream/internal/memsys"
	"hfstream/internal/sim"
	"hfstream/internal/workloads"
	"hfstream/trace"
)

// RunOpts bundles the optional observability knobs a run can enable.
type RunOpts struct {
	// SampleInterval enables the per-interval time series (0 = off).
	SampleInterval uint64
	// Trace, when non-nil, receives the structured event trace.
	Trace *trace.Buffer
	// Progress, when non-nil, is called from the cycle loop every
	// ProgressEvery cycles (see sim.Config.Progress).
	Progress      func(cycle, issued uint64)
	ProgressEvery uint64
	// Faults, when non-nil, is the per-run fault injector (see
	// sim.Config.Faults); injectors carry per-run state.
	Faults *fault.Injector
	// DisableFastForward forces the per-cycle kernel loop (see
	// sim.Config.DisableFastForward); outputs are identical either way.
	DisableFastForward bool
}

// Apply copies the options onto a simulator config.
func (o RunOpts) Apply(simCfg *sim.Config) {
	simCfg.SampleInterval = o.SampleInterval
	simCfg.Trace = o.Trace
	simCfg.Progress = o.Progress
	simCfg.ProgressEvery = o.ProgressEvery
	simCfg.Faults = o.Faults
	simCfg.DisableFastForward = o.DisableFastForward
}

// RunBenchmarkOpts runs the pipelined version of b on the design point
// and verifies the output region against the functional oracle. The
// pipeline's shape is cfg's alone (see plan); the simulation aborts with a
// *sim.CanceledError once ctx is done, so a deadlocked or slow job cannot
// outlive its caller's deadline.
func RunBenchmarkOpts(ctx context.Context, b *workloads.Benchmark, cfg design.Config, opts RunOpts) (*sim.Result, error) {
	if cfg.Cores < 2 {
		return nil, fmt.Errorf("exp: %s/%s: pipelined runs need 2..%d cores", b.Name, cfg.Name(), design.MaxCores)
	}
	return run(ctx, b, cfg, cfg.Name(), opts)
}

// RunSingleOpts runs the single-threaded baseline of b on one core of the
// EXISTING machine and verifies its output.
func RunSingleOpts(ctx context.Context, b *workloads.Benchmark, opts RunOpts) (*sim.Result, error) {
	return run(ctx, b, design.ExistingConfig().WithCores(1), "single", opts)
}

// run is the one path every simulation of a benchmark takes: plan the
// shape, then execute it; label names the run in errors.
func run(ctx context.Context, b *workloads.Benchmark, cfg design.Config, label string, opts RunOpts) (*sim.Result, error) {
	threads, routes, err := plan(b, cfg)
	if err != nil {
		return nil, fmt.Errorf("exp: %s/%s: %w", b.Name, label, err)
	}
	return execute(ctx, b, cfg, label, threads, routes, opts)
}

// plan turns the shape cfg describes into the threads that realize it and
// the queue routes a machine past two cores needs: one core runs the
// unpartitioned loop, two the benchmark's own pipeline (DSWP's two stages,
// or bzip2's hand partition) over the implicit dual-core routing, Cores >=
// 3 a Cores-stage DSWP chain, and Parallel Cores-1 replicated workers plus
// a merger. Software-queue designs get their threads lowered (which
// leaves the queue-free single-core loop as it is).
func plan(b *workloads.Benchmark, cfg design.Config) ([]sim.Thread, []memsys.QueueRoute, error) {
	var progs []*isa.Program
	var routes []dswp.QueueRoute
	var err error
	n := cfg.Cores
	switch {
	case n < 1 || n > design.MaxCores:
		err = fmt.Errorf("core count %d out of range 1..%d", n, design.MaxCores)
	case cfg.Parallel && n < 3:
		err = fmt.Errorf("parallel-stage designs need Cores >= 3 (got %d)", n)
	case n == 1:
		var p *isa.Program
		p, err = b.Single()
		progs = []*isa.Program{p}
	case n == 2:
		var pair [2]*isa.Program
		pair, _, err = b.Pipelined()
		progs = pair[:]
	case b.Loop == nil:
		err = fmt.Errorf("hand-partitioned; %d-core shapes need an IR kernel", n)
	default:
		var pr *dswp.Result
		if cfg.Parallel {
			pr, err = dswp.PartitionParallel(b.Loop, n-1)
		} else {
			pr, err = dswp.PartitionN(b.Loop, n)
		}
		if err == nil {
			progs, routes = pr.Threads, pr.Routes
		}
	}
	if err != nil {
		return nil, nil, err
	}
	threads := make([]sim.Thread, len(progs))
	for i, p := range progs {
		if cfg.SoftwareQueues() {
			if p, err = lower.Lower(p, cfg.Layout()); err != nil {
				return nil, nil, err
			}
		}
		threads[i] = sim.Thread{Prog: p}
	}
	qr := make([]memsys.QueueRoute, len(routes))
	for i, rt := range routes {
		qr[i] = memsys.QueueRoute{Producer: rt.Producer, Consumer: rt.Consumer}
	}
	return threads, qr, nil
}

// execute forks the benchmark's input image, simulates the threads on
// cfg's machine and checks the output region against the oracle. It is the
// package's only caller of sim.Run.
func execute(ctx context.Context, b *workloads.Benchmark, cfg design.Config, label string, threads []sim.Thread, routes []memsys.QueueRoute, opts RunOpts) (*sim.Result, error) {
	e := images(b.Name)
	if e.err != nil {
		return nil, fmt.Errorf("exp: %s/%s: %w", b.Name, label, e.err)
	}
	img := e.base.Fork()
	simCfg := cfg.SimConfig()
	simCfg.Preload = b.InputRegions
	opts.Apply(&simCfg)
	simCfg.Cancel = ctx.Done()
	simCfg.Mem.QueueRoutes = routes
	res, err := sim.Run(simCfg, img, threads)
	if err == nil {
		err = CheckOutput(b, img)
	}
	if err != nil {
		return nil, fmt.Errorf("exp: %s/%s: %w", b.Name, label, err)
	}
	return res, nil
}

// CheckOutput compares the benchmark's output region in img against the
// memoized functional oracle, word by word.
func CheckOutput(b *workloads.Benchmark, img *mem.Memory) error {
	want, err := Expected(b)
	if err != nil {
		return err
	}
	for a := b.Out.Base; a < b.Out.End(); a += 8 {
		if got, exp := img.Read8(a), want.Read8(a); got != exp {
			return fmt.Errorf("output mismatch at %#x: got %#x want %#x", a, got, exp)
		}
	}
	return nil
}
