package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"hfstream/internal/design"
	"hfstream/internal/dswp"
	"hfstream/internal/exp"
	"hfstream/internal/isa"
	"hfstream/internal/lower"
	"hfstream/internal/mem"
	"hfstream/internal/memsys"
	"hfstream/internal/sim"
	"hfstream/internal/stats"
	"hfstream/internal/workloads"
	"hfstream/trace"
)

// runDirect is a kernel op as hfexp's runner performs it: resolve a fresh
// benchmark, then exp.RunBenchmarkOpts, which partitions, lowers, builds
// the image, simulates and checks the output against the oracle.
func runDirect(ctx context.Context, c cell, opts exp.RunOpts) (*sim.Result, error) {
	b, err := workloads.ByName(c.Bench)
	if err != nil {
		return nil, err
	}
	return exp.RunBenchmarkOpts(ctx, b, c.Cfg, opts)
}

// errNoPartition marks a pipeline shape the partitioner cannot give a
// kernel, as opposed to a run that failed.
var errNoPartition = errors.New("no partition of this shape")

// unrolledProbe asks runUnrolled for the costs that need a stop-the-world
// read of the allocator, which a timed op cannot afford.
type unrolledProbe struct {
	partAllocs, simAllocs, simBytes uint64
}

// runUnrolled is runDirect taken apart into the public steps
// exp.RunBenchmarkOpts is made of, so that each gets a span. Every check
// stays: the same partitioners, the same lowering, the same preload and
// routes, the same oracle comparison. The reference pass verifies that
// both forms report the same cycles for every cell.
func runUnrolled(ctx context.Context, tr *tracer, c cell, opts exp.RunOpts, probe *unrolledProbe) (*sim.Result, error) {
	var ms0, ms1 runtime.MemStats

	tr.begin("workloads.build")
	b, err := workloads.ByName(c.Bench)
	tr.end()
	if err != nil {
		return nil, err
	}

	if probe != nil {
		runtime.ReadMemStats(&ms0)
	}
	tr.begin("dswp.partition")
	var progs []*isa.Program
	var routes []dswp.QueueRoute
	switch {
	case c.Cfg.Parallel || c.Cfg.Cores >= 3:
		if b.Loop == nil {
			tr.end()
			return nil, fmt.Errorf("%w: %s is hand-partitioned, %s needs an IR kernel", errNoPartition, c.Bench, c.Cfg.Name())
		}
		var pr *dswp.Result
		if c.Cfg.Parallel {
			pr, err = dswp.PartitionParallel(b.Loop, c.Cfg.Cores-1)
		} else {
			pr, err = dswp.PartitionN(b.Loop, c.Cfg.Cores)
		}
		if err == nil {
			progs, routes = pr.Threads, pr.Routes
		}
	default:
		var pair [2]*isa.Program
		pair, _, err = b.Pipelined()
		progs = pair[:]
	}
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errNoPartition, err)
	}
	if probe != nil {
		runtime.ReadMemStats(&ms1)
		probe.partAllocs = ms1.Mallocs - ms0.Mallocs
	}

	if c.Cfg.SoftwareQueues() {
		tr.begin("lower.lower")
		lowered := make([]*isa.Program, len(progs))
		for i, p := range progs {
			if lowered[i], err = lower.Lower(p, c.Cfg.Layout()); err != nil {
				break
			}
		}
		tr.end()
		if err != nil {
			return nil, err
		}
		progs = lowered
	}

	tr.begin("mem.image")
	img := mem.New()
	b.Setup(img)
	tr.end()

	simCfg := c.Cfg.SimConfig()
	simCfg.Preload = b.InputRegions
	opts.Apply(&simCfg)
	simCfg.Cancel = ctx.Done()
	for _, rt := range routes {
		simCfg.Mem.QueueRoutes = append(simCfg.Mem.QueueRoutes,
			memsys.QueueRoute{Producer: rt.Producer, Consumer: rt.Consumer})
	}
	ths := make([]sim.Thread, len(progs))
	for i, p := range progs {
		ths[i] = sim.Thread{Prog: p}
	}
	if probe != nil {
		runtime.ReadMemStats(&ms0)
	}
	tr.begin("sim.run")
	res, err := sim.Run(simCfg, img, ths)
	tr.end()
	if err != nil {
		return nil, err
	}
	if probe != nil {
		runtime.ReadMemStats(&ms1)
		probe.simAllocs, probe.simBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	}

	tr.begin("exp.check")
	err = exp.CheckOutput(b, img)
	tr.end()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// kernelWorkload is matrix2, ncore and referee: one lane calling into the
// simulator, one op per (cell, mode).
type kernelWorkload struct {
	name  string
	rc    runConfig
	cells []cell
	ref   []uint64 // every cell's cycles with fast-forward on
}

func (w *kernelWorkload) lanes() int { return 1 }

// The paper's geomean producer times, normalised to HEAVYWT (Figure 7 and
// Figure 12), which matrix2's reference pass reproduces.
var paperNorms = []struct {
	metric, design string
	paper          float64
}{
	{"exp.fig7_syncopti_norm", "SYNCOPTI", 1.31},
	{"exp.fig7_memopti_norm", "MEMOPTI", 2.1},
	{"exp.fig7_existing_norm", "EXISTING", 2.1},
	{"exp.fig12_scq64_norm", "SYNCOPTI_SC+Q64", 1.02},
}

func (w *kernelWorkload) setup(ctx context.Context, rc runConfig, clock *ytClock, res *runResult) error {
	w.rc = rc
	switch w.name {
	case "matrix2":
		w.cells = matrixCells()
	case "referee":
		w.cells = refereeCells()
	case "ncore":
		w.cells = ncoreCells()
	}
	for _, b := range workloads.All() {
		if _, err := exp.Expected(b); err != nil {
			return err
		}
	}

	// The reference pass: every cell once with fast-forward on. It is the
	// untimed warm pass, it fixes the cycles every timed op must repeat,
	// and in a traced run it collects what a timed op cannot. ncore takes
	// its reference from the unrolled form, which can tell a shape the
	// partitioner does not support from a failure: such cells are dropped
	// here, once, and the kept list is printed. A traced run executes both
	// forms and requires equal cycles.
	candidates := w.cells
	w.cells = nil
	model := newModelSum()
	producer := make(map[string]float64) // bench/design -> producer-core time
	var partAllocs, simAllocs, simKB, jsonYT []float64
	for _, c := range candidates {
		t0 := time.Now()
		var p unrolledProbe
		var direct, unrolled *sim.Result
		var err error
		if w.name == "ncore" || rc.Trace {
			probe := &p
			if !rc.Trace {
				probe = nil
			}
			unrolled, err = runUnrolled(ctx, nil, c, exp.RunOpts{}, probe)
			if w.name == "ncore" && errors.Is(err, errNoPartition) {
				fmt.Fprintf(os.Stderr, "spine: ncore drops %s: %v\n", c, err)
				continue
			}
			if err != nil {
				return fmt.Errorf("reference %s (unrolled): %w", c, err)
			}
		}
		if w.name != "ncore" || rc.Trace {
			if direct, err = runDirect(ctx, c, exp.RunOpts{}); err != nil {
				return fmt.Errorf("reference %s: %w", c, err)
			}
		}
		r := direct
		if r == nil {
			r = unrolled
		}
		if direct != nil && unrolled != nil && direct.Cycles != unrolled.Cycles {
			return fmt.Errorf("reference %s: the unrolled op ran %d cycles, exp.RunBenchmarkOpts %d", c, unrolled.Cycles, direct.Cycles)
		}
		w.cells = append(w.cells, c)
		w.ref = append(w.ref, r.Cycles)
		producer[c.String()] = float64(r.Breakdowns[0].Total())
		clock.observe(float64(time.Since(t0)))
		if !rc.Trace {
			continue
		}
		partAllocs = append(partAllocs, float64(p.partAllocs))
		simAllocs = append(simAllocs, float64(p.simAllocs))
		simKB = append(simKB, float64(p.simBytes)/1024)
		m := r.Metrics()
		m.Benchmark, m.Design = c.Bench, c.Cfg.Name()
		t0 = time.Now()
		body, err := sim.MetricsJSON(m)
		d := float64(time.Since(t0))
		if err != nil {
			return err
		}
		jsonYT = append(jsonYT, d/clock.observe(d))
		model.add(m, body)
	}
	if w.name == "ncore" {
		for _, c := range w.cells {
			res.Cells = append(res.Cells, c.String())
		}
		fmt.Fprintf(os.Stderr, "spine: ncore keeps %d of %d cells: %v\n", len(w.cells), len(candidates), res.Cells)
	}
	if len(w.cells) == 0 {
		return fmt.Errorf("no cell left to run")
	}
	if rc.Trace {
		model.into(res.Layers)
		res.ModelDigest = model.digestHex()
		res.Layers["dswp.allocs_per_partition"] = stats.Mean(partAllocs)
		res.Layers["sim.allocs_per_run"] = stats.Mean(simAllocs)
		res.Layers["sim.alloc_kb_per_run"] = stats.Mean(simKB)
		res.Layers["sim.metrics_json_yt"] = median(jsonYT)
	}
	if w.name == "matrix2" {
		var errSum float64
		for _, pn := range paperNorms {
			var ratios []float64
			for _, b := range workloads.All() {
				ratios = append(ratios, producer[b.Name+"/"+pn.design]/producer[b.Name+"/"+design.HeavyWTConfig().Name()])
			}
			norm := stats.Geomean(ratios)
			res.Layers[pn.metric] = norm
			errSum += math.Abs(norm-pn.paper) / pn.paper
		}
		res.PaperErrPct = 100 * errSum / float64(len(paperNorms))
		res.Layers["exp.paper_err_pct"] = res.PaperErrPct
	} else {
		res.note("%s has no paper reference: unvalidated, no error figure", w.name)
	}
	return nil
}

func (w *kernelWorkload) ops(r int) []genOp {
	if w.name == "referee" {
		return refereeOps(w.rc.Seed, w.rc.Part, r, len(w.cells))
	}
	return passOps(w.rc.Seed, w.name, w.rc.Part, r, len(w.cells))
}

func (w *kernelWorkload) round(ctx context.Context, r int, traced bool, lanes []*lane) error {
	l := lanes[0]
	for _, op := range w.ops(r) {
		c := w.cells[op.Cell]
		var opts exp.RunOpts
		switch op.Mode {
		case "ffoff":
			opts.DisableFastForward = true
		case "sink":
			opts.Trace = trace.NewSink()
		}
		l.exec(traced, op.Cell, func() string { return c.String() + " " + op.Mode }, func(tr *tracer) (uint8, uint64, error) {
			var res *sim.Result
			var err error
			if tr != nil {
				res, err = runUnrolled(ctx, tr, c, opts, nil)
			} else {
				res, err = runDirect(ctx, c, opts)
			}
			if err != nil {
				return 0, 0, err
			}
			if res.Cycles != w.ref[op.Cell] {
				return 0, res.Cycles, fmt.Errorf("ran %d cycles, the reference pass %d", res.Cycles, w.ref[op.Cell])
			}
			return 0, res.Cycles, nil
		})
	}
	return nil
}

// kernelSpans are the steps of an unrolled op, which are also the span
// names and, with a _yt suffix, the per-layer metric names.
var kernelSpans = []string{"workloads.build", "dswp.partition", "lower.lower", "mem.image", "sim.run", "exp.check"}

func (w *kernelWorkload) finish(ctx context.Context, lanes []*lane, res *runResult) error {
	if !w.rc.Trace {
		return nil
	}
	l := lanes[0]
	self := opSelf(l.tr.spans)
	perOp := make(map[string][]float64)
	total := make(map[string]float64)
	speed := make(map[string][2]float64) // group -> cycles, sim.run yt
	var opTime, coreCycles float64
	for _, o := range l.ops {
		if !o.Traced {
			continue
		}
		opTime += o.Lat
		s := self[o.OpID]
		for _, name := range kernelSpans {
			if ns, ok := s[name]; ok {
				perOp[name] = append(perOp[name], float64(ns)/o.YT)
				total[name] += float64(ns)
			}
		}
		total["op"] += float64(s["op"])
		c := w.cells[o.Cell]
		simYT := float64(s["sim.run"]) / o.YT
		for _, g := range []string{"", "." + c.group()} {
			v := speed[g]
			speed[g] = [2]float64{v[0] + float64(o.Cycles), v[1] + simYT}
		}
		coreCycles += float64(o.Cycles) * float64(c.cores())
	}
	if opTime == 0 {
		return nil
	}
	for _, name := range kernelSpans {
		res.Layers[name+"_yt"] = median(perOp[name])
	}
	res.Layers["dswp.partition_share"] = total["dswp.partition"] / opTime
	res.Layers["sim.run_share"] = total["sim.run"] / opTime
	res.Layers["harness.span_coverage_pct"] = 100 * (1 - total["op"]/opTime)
	for g, v := range speed {
		if v[1] > 0 {
			res.Layers["sim.cycles_per_yt"+g] = v[0] / v[1]
		}
	}
	if v := speed[""]; v[1] > 0 {
		res.Layers["sim.core_cycles_per_yt"] = coreCycles / v[1]
	}
	if cov := res.Layers["harness.span_coverage_pct"]; cov < 95 && w.name != "referee" {
		res.Failed++
		res.Failures = append(res.Failures, fmt.Sprintf("span self times cover %.1f%% of op time, below 95%%", cov))
	}
	return nil
}
