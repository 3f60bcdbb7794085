// Command hfchaos runs the fault-injection chaos sweep: seeded generated
// workloads under seeded fault plans across design points, checking the
// robustness contract on every run (no panic, no hang, oracle-correct
// results for delay-class faults, typed detection with a diagnosis for
// loss-class faults). Everything derives from integer seeds, so a failure
// printed by one invocation replays bit-exactly with the command it
// names.
//
// With -cluster the sweep moves up a tier: instead of driving the sim
// kernel directly, each scenario spins up a peered hfserve cluster on
// loopback, injects seeded network faults (serve/faultnet) into the
// peering channels and the driving clients, and checks the service
// contract — byte-correct or typed-error responses, zero poisoned
// cache entries, bounded compute amplification.
//
// Usage:
//
//	hfchaos                          # default corpus: seeds 1..6, 4 plans each
//	hfchaos -seeds 1,2,3 -plans 8
//	hfchaos -seed0 100 -n 20         # seeds 100..119
//	hfchaos -seeds 4 -designs SYNCOPTI -plans 2 -v   # replay one case
//	hfchaos -cluster -seeds 1,2,3    # service-tier chaos: faulted hfserve clusters
//	hfchaos -cluster -seeds 2 -plans 4 -replicas 3 -v   # replay one scenario set
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"hfstream"
	"hfstream/chaos"
	clusterchaos "hfstream/chaos/cluster"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit status as values, so the CLI's
// contract can be tested: 0 when every case upheld the robustness
// contract, 1 on a violation, a bad seed or design or an interrupted
// sweep, 2 on a flag the flag package rejects.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hfchaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seedList = fs.String("seeds", "1,2,3,4,5,6", "comma-separated workload seeds")
		seed0    = fs.Int64("seed0", 0, "with -n: first seed of a contiguous range (overrides -seeds)")
		n        = fs.Int("n", 0, "with -seed0: number of seeds")
		plans    = fs.Int("plans", 4, "fault plans per (seed, design), on top of the fault-free baseline")
		designs  = fs.String("designs", "", "comma-separated design points (default: all seven)")
		jobs     = fs.Int("j", 0, "worker-pool width (0 = GOMAXPROCS)")
		timeout  = fs.Duration("timeout", 60*time.Second, "per-run wall-clock limit; exceeding it is a failure")
		verbose  = fs.Bool("v", false, "print every run as it completes")

		clusterMode = fs.Bool("cluster", false, "service-tier chaos: faulted hfserve clusters instead of kernel runs")
		replicas    = fs.Int("replicas", 3, "with -cluster: replicas per scenario")
		requests    = fs.Int("requests", 24, "with -cluster: driver requests per scenario")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "hfchaos:", err)
		return 1
	}

	var seeds []int64
	if *n > 0 {
		for i := 0; i < *n; i++ {
			seeds = append(seeds, *seed0+int64(i))
		}
	} else {
		for _, s := range strings.Split(*seedList, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return fatal(fmt.Errorf("bad seed %q: %v", s, err))
			}
			seeds = append(seeds, v)
		}
	}

	// Every outcome under -v, on stdout; otherwise only the failures, on
	// stderr, as they happen (the report repeats them with replay lines).
	progress := func(done, total int, o chaos.Outcome) {
		w := stdout
		if !*verbose {
			if o.Class != chaos.ClassFail {
				return
			}
			w = stderr
		}
		on, plan, detail := o.Design, o.Plan, ""
		if o.Replicas > 0 {
			on = fmt.Sprintf("replicas=%d", o.Replicas)
		}
		if plan == "" {
			plan = "baseline"
		}
		if o.Detail != "" {
			detail = " (" + o.Detail + ")"
		}
		fmt.Fprintf(w, "[%3d/%3d] seed=%-4d %-16s %-40s %s%s\n", done, total, o.Seed, on, plan, o.Class, detail)
		if o.Replicas > 0 {
			fmt.Fprintf(w, "          errors=%d retries=%d %v\n", o.Errors, o.Retries, o.Wall.Round(time.Millisecond))
		}
		for _, s := range o.Shots {
			fmt.Fprintf(w, "          shot: %s\n", s)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()

	// -cluster chooses the family of cases; the report and the exit status
	// are the same for both.
	var rep *chaos.Report
	var err error
	if *clusterMode {
		rep, err = clusterchaos.Sweep(ctx, clusterchaos.Config{
			Seeds: seeds, PlansPerSeed: *plans, Replicas: *replicas, Requests: *requests,
			Timeout: *timeout, Progress: progress,
		})
	} else {
		cfg := chaos.Config{Seeds: seeds, PlansPerSeed: *plans, Jobs: *jobs, Timeout: *timeout, Progress: progress}
		if *designs != "" {
			for _, name := range strings.Split(*designs, ",") {
				d, err := hfstream.DesignByName(strings.TrimSpace(name))
				if err != nil {
					return fatal(err)
				}
				cfg.Designs = append(cfg.Designs, d)
			}
		}
		rep, err = chaos.Sweep(ctx, cfg)
	}
	if rep != nil {
		fmt.Fprintf(stdout, "%s(%v)\n", rep.String(), time.Since(start).Round(time.Millisecond))
	}
	if err != nil {
		return fatal(err)
	}
	if rep.Failures > 0 {
		return 1
	}
	return 0
}
