package hfstream

import (
	"context"

	"hfstream/internal/exp"
	"hfstream/internal/sim"
)

// RunCtx executes the pipelined version of the benchmark on the design
// point — two threads on the paper's machine, Cores() of them on a
// retargeted one — with cancellation and per-run observability options.
// The run aborts with an error once ctx is done, so a deadlocked or slow
// simulation cannot outlive its caller's deadline. Like Run, the memory
// image is verified against the functional-interpreter oracle.
func RunCtx(ctx context.Context, b Benchmark, d Design, opts ...RunOpt) (Result, error) {
	o := gatherOpts(opts)
	res, err := exp.RunBenchmarkOpts(ctx, b.b, d.cfg, o.RunOpts)
	if err != nil {
		return Result{}, err
	}
	return finishRun(res, b.Name(), d.Name(), o)
}

// RunSingleThreadedCtx is RunSingleThreaded with cancellation and
// observability options (see RunCtx).
func RunSingleThreadedCtx(ctx context.Context, b Benchmark, opts ...RunOpt) (Result, error) {
	o := gatherOpts(opts)
	res, err := exp.RunSingleOpts(ctx, b.b, o.RunOpts)
	if err != nil {
		return Result{}, err
	}
	return finishRun(res, b.Name(), "SINGLE", o)
}

// finishRun converts the internal result and applies post-run options
// (the metrics snapshot write).
func finishRun(res *sim.Result, bench, designName string, o runOpts) (Result, error) {
	out := fromSim(res)
	if o.metrics != nil {
		m := res.Metrics()
		m.Benchmark = bench
		m.Design = designName
		buf, err := sim.MetricsJSON(m)
		if err != nil {
			return Result{}, err
		}
		if _, err := o.metrics.Write(buf); err != nil {
			return Result{}, err
		}
	}
	return out, nil
}
