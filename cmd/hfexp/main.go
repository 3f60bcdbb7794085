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
// The experiment flags are exp.Catalog's Flag column, so `hfexp -h` is the
// list; selected experiments print in catalog order whatever order the
// flags came in.
//
// Usage:
//
//	hfexp [-j N] [-progress] [-charts] [-table1] [-table2] [-fig3] [-fig6]
//	      [-fig7] ... [-scaling] [-stalls] [-ablations] [-costs]
//	hfexp -metrics dir/ [-benches bzip2,adpcmdec]
//	hfexp -diagnose diag.json
//
// Exit status: 0 on success, 1 on usage or harness errors (2 when the flag
// package rejects the command line), 3 when any simulation in the grid
// deadlocked or finished without quiescing — the first machine diagnosis
// is printed to stderr and, with -diagnose, written as JSON.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"

	"hfstream/internal/exp"
	"hfstream/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit status as values.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hfexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	selected := map[string]*bool{} // by flag name; the ablation rows share one
	for _, e := range exp.Catalog {
		if e.Flag != "" && selected[e.Flag] == nil {
			selected[e.Flag] = fs.Bool(e.Flag, false, e.Help)
		}
	}
	var (
		charts   = fs.Bool("charts", false, "render breakdown figures as ASCII stacked bars")
		workers  = fs.Int("j", 0, "simulation worker count (0 = all cores, 1 = serial)")
		progress = fs.Bool("progress", false, "report each simulation's wall time and cycles to stderr")
		metrics  = fs.String("metrics", "", "write per-(benchmark,design) metrics JSON snapshots into this directory and exit")
		benches  = fs.String("benches", "", "comma-separated benchmark subset for -metrics (default: all)")
		diagnose = fs.String("diagnose", "", "write the first deadlock/unquiesced diagnosis JSON to this file (\"-\" for stderr)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "hfexp: unexpected argument %q (experiments are flags: -fig7, not fig7; see -h)\n", fs.Arg(0))
		return 1
	}
	if *benches != "" && *metrics == "" {
		fmt.Fprintln(stderr, "hfexp: -benches selects benchmarks for -metrics and needs it")
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	exp.SetParallelism(*workers)
	exp.SetWarnHook(func(msg string) {
		fmt.Fprintln(stderr, "hfexp: warning:", msg)
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
	// status is the exit status for a run that otherwise ends with code:
	// a machine diagnosis, reported here, overrides it with 3.
	status := func(code int) int {
		diagMu.Lock()
		defer diagMu.Unlock()
		if firstDiag == nil {
			return code
		}
		fmt.Fprintf(stderr, "hfexp: %s produced a machine diagnosis:\n%s", firstDiagJob, firstDiag.String())
		if *diagnose != "" {
			buf, err := sim.DiagnosisJSON(firstDiag)
			if err != nil {
				fmt.Fprintln(stderr, "hfexp:", err)
			} else if *diagnose == "-" {
				stderr.Write(buf)
			} else if err := os.WriteFile(*diagnose, buf, 0o644); err != nil {
				fmt.Fprintln(stderr, "hfexp:", err)
			} else {
				fmt.Fprintf(stderr, "hfexp: wrote diagnosis to %s\n", *diagnose)
			}
		}
		return 3
	}
	var report func(done, total int, r exp.JobResult)
	if *progress {
		report = func(done, total int, r exp.JobResult) {
			if r.Err != nil {
				fmt.Fprintf(stderr, "[%d/%d] %-28s FAILED after %7.1fms: %v\n",
					done, total, r.Job.Name(), float64(r.Wall.Microseconds())/1000, r.Err)
				return
			}
			fmt.Fprintf(stderr, "[%d/%d] %-28s %9d cycles  %7.1fms\n",
				done, total, r.Job.Name(), r.Res.Cycles, float64(r.Wall.Microseconds())/1000)
		}
	}
	exp.SetProgress(report)

	if *metrics != "" {
		var names []string
		if *benches != "" {
			names = strings.Split(*benches, ",")
		}
		if err := exp.WriteMetricsDir(ctx, *metrics, names); err != nil {
			fmt.Fprintln(stderr, "hfexp:", err)
			return status(1)
		}
		return status(0)
	}

	all := true // no experiment flag: everything a bare hfexp regenerates
	for _, on := range selected {
		all = all && !*on
	}
	for _, e := range exp.Catalog {
		on := e.Default
		if !all {
			on = e.Flag != "" && *selected[e.Flag]
		}
		if !on {
			continue
		}
		fig, err := e.Run(ctx)
		if err != nil {
			fmt.Fprintln(stderr, "hfexp:", err)
			return status(1)
		}
		out := fig.Table()
		if c, ok := fig.(interface{ Chart() string }); ok && *charts {
			out = c.Chart()
		}
		fmt.Fprintln(stdout, out)
	}
	return status(0)
}
