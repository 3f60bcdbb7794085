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
	"math/bits"
	"sort"

	"hfstream/fault"
	"hfstream/internal/design"
	"hfstream/internal/isa"
	"hfstream/internal/lower"
	"hfstream/internal/mem"
	"hfstream/internal/memsys"
	"hfstream/internal/queue"
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

// run is the one path every simulation of a benchmark takes: take the
// shape's cached plan, execute it over a fork of the benchmark's input
// image and check the output against the oracle; label names the run in
// errors.
func run(ctx context.Context, b *workloads.Benchmark, cfg design.Config, label string, opts RunOpts) (*sim.Result, error) {
	fail := func(err error) (*sim.Result, error) {
		return nil, fmt.Errorf("exp: %s/%s: %w", b.Name, label, err)
	}
	progs, err := plan(b, cfg)
	if err != nil {
		return fail(err)
	}
	e := images(b.Name)
	if e.err != nil {
		return fail(e.err)
	}
	img := e.base.Fork()
	res, err := Execute(ctx, cfg, progs, img, b.InputRegions, opts)
	if err == nil {
		err = CheckOutput(b, img)
	}
	if err != nil {
		return fail(err)
	}
	return res, nil
}

// MPMCUnsupportedError reports a workload whose statically derived queue
// topology needs multi-producer/multi-consumer semantics on a design
// point that cannot provide them: the SYNCOPTI in-memory queue
// controller assigns slots from per-core cumulative produce/consume
// counters, which collide as soon as a queue has more than one endpoint
// on either side. Realize the topology as SPSC lanes instead (the DSWP
// parallel-stage partitioner does exactly that), or run it on the
// software-queue or HEAVYWT designs, which implement the ticket
// discipline natively.
type MPMCUnsupportedError struct {
	Design string
	Queues []int // MPMC queue IDs, ascending
}

// Error implements error.
func (e *MPMCUnsupportedError) Error() string {
	return fmt.Sprintf("hfstream: design %s cannot serve MPMC queues %v (per-core slot counters collide); use software queues, HEAVYWT, or SPSC lanes",
		e.Design, e.Queues)
}

// maxQueues bounds the queue numbers a program may use: every design
// point's layout has 64 queues.
const maxQueues = 64

// Execute simulates progs, one per core and at most design.MaxCores of
// them, on cfg's machine over img, with the preload regions warmed into
// the caches first. It is the one caller of sim.Run outside tests, and so
// the one place that reads each queue's producing and consuming cores off
// the programs, admits MPMC queues (the synchronization array takes their
// routes, the software-queue lowerings their ticket striping, and SYNCOPTI
// refuses them with *MPMCUnsupportedError), routes the fabric past two
// cores and lowers the programs of software-queue designs. A lowering
// failure names its program and fails the call before anything runs.
func Execute(ctx context.Context, cfg design.Config, progs []*isa.Program, img *mem.Memory, preload []mem.Region, opts RunOpts) (*sim.Result, error) {
	for _, p := range progs {
		if err := p.Validate(maxQueues); err != nil {
			return nil, &sim.ValidationError{Reason: err.Error()}
		}
	}
	routes, mpmc := topology(progs)
	simCfg := cfg.SimConfig()
	if len(mpmc) > 0 {
		if !cfg.SupportsMPMC() {
			qs := make([]int, 0, len(mpmc))
			for q := range mpmc {
				qs = append(qs, q)
			}
			sort.Ints(qs)
			return nil, &MPMCUnsupportedError{Design: cfg.Name(), Queues: qs}
		}
		if simCfg.UseSyncArray {
			simCfg.SA.MPMC = mpmc
		}
	}
	simCfg.Mem.QueueRoutes = routes
	threads := make([]sim.Thread, len(progs))
	for i, p := range progs {
		if cfg.SoftwareQueues() {
			var err error
			if p, err = lower.LowerRoles(p, cfg.Layout(), i, mpmc); err != nil {
				return nil, fmt.Errorf("program %d: %w", i, err)
			}
		}
		threads[i] = sim.Thread{Prog: p}
	}
	simCfg.Preload = preload
	opts.Apply(&simCfg)
	simCfg.Cancel = ctx.Done()
	return sim.Run(simCfg, img, threads)
}

// topology reads the queue topology off the programs, which must have
// passed Validate(maxQueues). mpmc holds each queue with more than one
// producer or consumer, its cores in ascending order. routes is the
// fabric's route table, indexed by queue: each queue's lowest producing
// and consuming core (0 and 1 for a side nothing uses; an MPMC queue's
// route only steers the software-queue write-forward destination). The
// dual-core machine keeps the implicit peer mapping and its
// byte-identical goldens, so routes is nil up to two cores, and an SPSC
// run allocates nothing but the route table past them.
func topology(progs []*isa.Program) (routes []memsys.QueueRoute, mpmc map[int]queue.MPMCRoute) {
	var prod, cons [maxQueues]uint8 // bit t: core t produces/consumes
	top := -1
	for t, p := range progs {
		for _, in := range p.Instrs {
			switch in.Op {
			case isa.Produce:
				prod[in.Q] |= 1 << t
			case isa.Consume:
				cons[in.Q] |= 1 << t
			default:
				continue
			}
			top = max(top, in.Q)
		}
	}
	for q := 0; q <= top; q++ {
		if bits.OnesCount8(prod[q]) > 1 || bits.OnesCount8(cons[q]) > 1 {
			if mpmc == nil {
				mpmc = map[int]queue.MPMCRoute{}
			}
			mpmc[q] = queue.MPMCRoute{Producers: coresOf(prod[q]), Consumers: coresOf(cons[q])}
		}
	}
	if len(progs) > 2 && top >= 0 {
		routes = make([]memsys.QueueRoute, top+1)
		for q := range routes {
			routes[q] = memsys.QueueRoute{Producer: lowest(prod[q], 0), Consumer: lowest(cons[q], 1)}
		}
	}
	return routes, mpmc
}

// coresOf lists the cores of a bit set in ascending order.
func coresOf(set uint8) []int {
	var cores []int
	for ; set != 0; set &= set - 1 {
		cores = append(cores, bits.TrailingZeros8(set))
	}
	return cores
}

// lowest is the lowest core of a bit set, or def when it is empty.
func lowest(set uint8, def int) int {
	if set == 0 {
		return def
	}
	return bits.TrailingZeros8(set)
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
