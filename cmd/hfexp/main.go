// Command hfexp regenerates the paper's evaluation: Tables 1-2 and
// Figures 3 and 6-12. With no flags it runs everything. Simulations are
// fanned across all cores by default; -j 1 reproduces the old serial
// behaviour (the figures are byte-identical either way). Ctrl-C cancels
// in-flight simulations cleanly.
//
// With -metrics it instead writes one machine-readable metrics JSON
// snapshot per (benchmark, design) pair — deterministic files CI diffs
// against the checked-in goldens in testdata/golden/.
//
// Usage:
//
//	hfexp [-j N] [-progress] [-table1] [-table2] [-fig3] [-fig6] [-fig7]
//	      [-fig8] [-fig9] [-fig10] [-fig11] [-fig12] [-scaling] [-stalls]
//	hfexp -metrics dir/ [-benches bzip2,adpcmdec]
//	hfexp -diagnose diag.json
//
// Exit status: 0 on success, 1 on usage or harness errors, 3 when any
// simulation in the grid deadlocked or finished without quiescing — the
// first machine diagnosis is printed to stderr and, with -diagnose,
// written as JSON.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"

	"hfstream/internal/exp"
	"hfstream/internal/sim"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "benchmark loop information")
		table2   = flag.Bool("table2", false, "baseline simulator configuration")
		fig3     = flag.Bool("fig3", false, "transit vs COMM-OP delay illustration")
		fig6     = flag.Bool("fig6", false, "transit-delay tolerance (HEAVYWT)")
		fig7     = flag.Bool("fig7", false, "design-point execution time breakdowns")
		fig8     = flag.Bool("fig8", false, "communication frequency")
		fig9     = flag.Bool("fig9", false, "HEAVYWT speedup over single-threaded")
		fig10    = flag.Bool("fig10", false, "4-cycle bus sensitivity")
		fig11    = flag.Bool("fig11", false, "128-byte bus bandwidth")
		fig12    = flag.Bool("fig12", false, "stream cache and queue size optimizations")
		scaling  = flag.Bool("scaling", false, "N-core scaling curves: speedup vs core count per design")
		abl      = flag.Bool("ablations", false, "design-space ablations beyond the paper's figures")
		costs    = flag.Bool("costs", false, "hardware/OS cost vs performance summary")
		stalls   = flag.Bool("stalls", false, "per-design stall-cycle attribution table")
		charts   = flag.Bool("charts", false, "render breakdown figures as ASCII stacked bars")
		workers  = flag.Int("j", 0, "simulation worker count (0 = all cores, 1 = serial)")
		progress = flag.Bool("progress", false, "report each simulation's wall time and cycles to stderr")
		metrics  = flag.String("metrics", "", "write per-(benchmark,design) metrics JSON snapshots into this directory and exit")
		benches  = flag.String("benches", "", "comma-separated benchmark subset for -metrics (default: all)")
		diagnose = flag.String("diagnose", "", "write the first deadlock/unquiesced diagnosis JSON to this file (\"-\" for stderr)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	exp.SetParallelism(*workers)
	exp.SetWarnHook(func(msg string) {
		fmt.Fprintln(os.Stderr, "hfexp: warning:", msg)
	})
	// Capture the first forensic snapshot any job produces: jobs run
	// concurrently, and one bad machine is enough to explain a grid
	// failure. Exit status 3 distinguishes "a simulation deadlocked or
	// never quiesced" from usage errors.
	var diagMu sync.Mutex
	var firstDiag *sim.Diagnosis
	var firstDiagJob string
	exp.SetDiagnosisHook(func(job string, d *sim.Diagnosis) {
		diagMu.Lock()
		defer diagMu.Unlock()
		if firstDiag == nil {
			firstDiag, firstDiagJob = d, job
		}
	})
	sawDiagnosis := func() bool {
		diagMu.Lock()
		defer diagMu.Unlock()
		if firstDiag == nil {
			return false
		}
		fmt.Fprintf(os.Stderr, "hfexp: %s produced a machine diagnosis:\n%s", firstDiagJob, firstDiag.String())
		if *diagnose != "" {
			buf, err := sim.DiagnosisJSON(firstDiag)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hfexp:", err)
			} else if *diagnose == "-" {
				os.Stderr.Write(buf)
			} else if err := os.WriteFile(*diagnose, buf, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "hfexp:", err)
			} else {
				fmt.Fprintf(os.Stderr, "hfexp: wrote diagnosis to %s\n", *diagnose)
			}
		}
		return true
	}
	if *progress {
		exp.SetProgress(func(done, total int, r exp.JobResult) {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "[%d/%d] %-28s FAILED after %7.1fms: %v\n",
					done, total, r.Job.Name(), float64(r.Wall.Microseconds())/1000, r.Err)
				return
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %-28s %9d cycles  %7.1fms\n",
				done, total, r.Job.Name(), r.Res.Cycles, float64(r.Wall.Microseconds())/1000)
		})
	}

	if *metrics != "" {
		var names []string
		if *benches != "" {
			names = strings.Split(*benches, ",")
		}
		if err := exp.WriteMetricsDir(ctx, *metrics, names); err != nil {
			fmt.Fprintln(os.Stderr, "hfexp:", err)
			if sawDiagnosis() {
				os.Exit(3)
			}
			os.Exit(1)
		}
		if sawDiagnosis() {
			os.Exit(3)
		}
		return
	}

	all := !(*table1 || *table2 || *fig3 || *fig6 || *fig7 || *fig8 ||
		*fig9 || *fig10 || *fig11 || *fig12 || *scaling || *abl || *costs || *stalls)

	type job struct {
		on  bool
		run func() (string, error)
	}
	renderFig := tableCtx[*exp.BreakdownFigure](ctx)
	ablation := tableCtx[*exp.AblationResult](ctx)
	if *charts {
		renderFig = chartCtx(ctx)
	}
	jobs := []job{
		{*table1 || all, func() (string, error) { return exp.Table1(), nil }},
		{*table2 || all, func() (string, error) { return exp.Table2(), nil }},
		{*fig3 || all, func() (string, error) { return exp.Fig3().Table(), nil }},
		{*fig6 || all, tableCtx[*exp.Fig6Result](ctx)(exp.Fig6Ctx)},
		{*fig7 || all, renderFig(exp.Fig7Ctx)},
		{*fig8 || all, tableCtx[*exp.Fig8Result](ctx)(exp.Fig8Ctx)},
		{*fig9 || all, tableCtx[*exp.Fig9Result](ctx)(exp.Fig9Ctx)},
		{*fig10 || all, renderFig(exp.Fig10Ctx)},
		{*fig11 || all, renderFig(exp.Fig11Ctx)},
		{*fig12 || all, tableCtx[*exp.Fig12Result](ctx)(exp.Fig12Ctx)},
		{*scaling || all, tableCtx[*exp.ScalingResult](ctx)(exp.ScalingCtx)},
		{*stalls || all, tableCtx[*exp.StallFigure](ctx)(exp.StallBreakdown)},
		{*abl, ablation(exp.AblationQLU)},
		{*abl, ablation(exp.AblationBusPipelining)},
		{*abl, ablation(exp.AblationRegMapped)},
		{*abl, ablation(exp.AblationCentralizedStore)},
		{*abl, ablation(exp.AblationStreamCacheSize)},
		{*abl, ablation(exp.AblationNetQueue)},
		{*abl, ablation(exp.AblationProbeTimeout)},
		{*abl, tableCtx[*exp.StagesResult](ctx)(exp.AblationStages)},
		{*costs, tableCtx[*exp.CostResult](ctx)(exp.Costs)},
	}
	for _, j := range jobs {
		if !j.on {
			continue
		}
		out, err := j.run()
		if err != nil {
			fmt.Fprintln(os.Stderr, "hfexp:", err)
			if sawDiagnosis() {
				os.Exit(3)
			}
			os.Exit(1)
		}
		fmt.Println(out)
	}
	if sawDiagnosis() {
		os.Exit(3)
	}
}

// tabler is any experiment result that renders itself.
type tabler interface{ Table() string }

// tableCtx binds ctx and adapts an experiment, a func(ctx) (T, error),
// into the job runner shape. Every experiment that simulates takes the
// signal context, so Ctrl-C stops whichever one is running.
func tableCtx[T tabler](ctx context.Context) func(func(context.Context) (T, error)) func() (string, error) {
	return func(f func(context.Context) (T, error)) func() (string, error) {
		return func() (string, error) {
			r, err := f(ctx)
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}
	}
}

func chartCtx(ctx context.Context) func(func(context.Context) (*exp.BreakdownFigure, error)) func() (string, error) {
	return func(f func(context.Context) (*exp.BreakdownFigure, error)) func() (string, error) {
		return func() (string, error) {
			r, err := f(ctx)
			if err != nil {
				return "", err
			}
			return r.Chart(), nil
		}
	}
}
