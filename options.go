package hfstream

import (
	"io"

	"hfstream/fault"
	"hfstream/internal/exp"
	"hfstream/trace"
)

// ProgressEvent is a periodic heartbeat from a running simulation,
// delivered through the WithProgress option.
type ProgressEvent struct {
	// Cycle is the current simulated cycle.
	Cycle uint64
	// Instructions is the cumulative issued-instruction count across all
	// cores at that cycle.
	Instructions uint64
}

// RunOpt customizes a RunCtx or RunSingleThreadedCtx call.
type RunOpt func(*runOpts)

type runOpts struct {
	trace          *trace.Sink
	metrics        io.Writer
	progress       func(ProgressEvent)
	progressEvery  uint64
	sampleInterval uint64
	faults         *fault.Injector
	noFastForward  bool
}

func gatherOpts(opts []RunOpt) runOpts {
	var o runOpts
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

func (o runOpts) expOpts() exp.RunOpts {
	e := exp.RunOpts{
		SampleInterval:     o.sampleInterval,
		Trace:              o.trace,
		ProgressEvery:      o.progressEvery,
		Faults:             o.faults,
		DisableFastForward: o.noFastForward,
	}
	if o.progress != nil {
		fn := o.progress
		e.Progress = func(cycle, issued uint64) {
			fn(ProgressEvent{Cycle: cycle, Instructions: issued})
		}
	}
	return e
}

// WithTrace directs the run's cycle-level event stream — instruction
// issue, operand writeback, queue operations, bus grants and stall runs —
// into the given sink. The sink is a bounded ring (see trace.NewSink), so
// tracing an arbitrarily long run keeps the most recent events; export
// them afterwards with trace.WriteChrome. Tracing does not change how the
// kernel runs: an idle stretch is one stall event carrying its duration,
// so the trace and the reported results are the same bytes with and
// without WithoutFastForward.
func WithTrace(s *trace.Sink) RunOpt {
	return func(o *runOpts) { o.trace = s }
}

// WithMetrics writes the run's machine-readable metrics snapshot — the
// same JSON document `hfsim -metrics` emits and the golden snapshots in
// testdata/golden/ are made of — to w once the run completes.
func WithMetrics(w io.Writer) RunOpt {
	return func(o *runOpts) { o.metrics = w }
}

// WithProgress registers fn to be called synchronously from the
// simulation loop every million simulated cycles (long deadlock-prone
// runs otherwise give no sign of life). fn must be fast and must not
// block; it runs on the simulation goroutine.
func WithProgress(fn func(ProgressEvent)) RunOpt {
	return func(o *runOpts) { o.progress = fn }
}

// WithProgressInterval changes the WithProgress cadence to every n
// simulated cycles (0 keeps the default).
func WithProgressInterval(n uint64) RunOpt {
	return func(o *runOpts) { o.progressEvery = n }
}

// WithFaults injects the seeded fault plan into the run: a fresh
// injector is built from the plan, so the same option value can be reused
// across runs. Delay-class faults are latency-only (the run completes
// with identical architectural results); loss-class faults sever a
// protocol path and must end in a typed detection — a *DeadlockError or
// an unquiesced exit carrying a populated Diagnosis. Use
// WithFaultInjector to keep access to the fired-shot log.
func WithFaults(p fault.Plan) RunOpt {
	return func(o *runOpts) { o.faults = p.Injector() }
}

// WithFaultInjector injects through a caller-built fault.Injector. The
// caller keeps the handle, so after the run — including error paths that
// return no Result — it can inspect Shots() and LossFired(). An injector
// carries per-run state and must not be reused across runs.
func WithFaultInjector(in *fault.Injector) RunOpt {
	return func(o *runOpts) { o.faults = in }
}

// WithoutFastForward disables the kernel's idle-cycle fast-forward for
// this run, ticking every idle cycle individually. Reported results are
// byte-identical either way — CI's golden re-check and the root
// differential battery both prove it — so the option exists for that
// proof and for debugging. It is the per-run form of the process-wide
// HFSTREAM_NO_FASTFORWARD environment variable.
func WithoutFastForward() RunOpt {
	return func(o *runOpts) { o.noFastForward = true }
}

// WithSampleInterval collects a throughput sample (per-core issue counts
// and bus grants) every n cycles; render them with Result.TimeSeriesReport
// or Result.TimeSeriesCSV.
func WithSampleInterval(n uint64) RunOpt {
	return func(o *runOpts) { o.sampleInterval = n }
}
