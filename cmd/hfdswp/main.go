// Command hfdswp inspects the DSWP partitioner: for each benchmark (or a
// named one) it prints the pipeline partition — stage assignment, queue
// count, condition handling — and optionally the generated thread
// programs.
//
// Usage:
//
//	hfdswp                      # summary for every benchmark
//	hfdswp -bench wc -asm       # one benchmark with full listings
//	hfdswp -bench fft2 -stages 3
//	hfdswp -bench wc -run       # also simulate the pipeline it printed
//	                            # (-stages cores of SYNCOPTI) and show
//	                            # where each stage stalls
//
// Exit status: 0 on success, 1 for an unknown -bench, 2 when the flag
// package rejects the command line.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"hfstream"
	"hfstream/internal/dswp"
	"hfstream/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit status as values.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hfdswp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName = fs.String("bench", "", "benchmark to inspect (default: all)")
		stages    = fs.Int("stages", 2, "pipeline stages")
		showAsm   = fs.Bool("asm", false, "print the generated thread programs")
		runSim    = fs.Bool("run", false, "simulate the -stages pipeline on SYNCOPTI and print per-stage stall attribution")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	names := workloads.Names()
	if *benchName != "" {
		names = []string{*benchName}
	}
	for _, name := range names {
		b, err := workloads.Shared(name)
		if err != nil {
			fmt.Fprintln(stderr, "hfdswp:", err)
			return 1
		}
		if b.Loop == nil {
			fmt.Fprintf(stdout, "%-10s hand-partitioned (nested loop); no IR to inspect\n", b.Name)
			if *runSim {
				simulate(stdout, b, *stages)
			}
			continue
		}
		res, err := dswp.PartitionN(b.Loop, *stages)
		if err != nil {
			fmt.Fprintf(stdout, "%-10s %v\n", b.Name, err)
			continue
		}
		counts := make([]int, *stages)
		for _, th := range res.Assignment {
			counts[th]++
		}
		fmt.Fprintf(stdout, "%-10s stages=%d queues=%d condStreamed=%v replicated=%d nodes/stage=%v",
			b.Name, res.Stages, res.QueueCount, res.CondStreamed, len(res.Replicated), counts)
		sizes := ""
		for _, p := range res.Threads {
			sizes += fmt.Sprintf(" %d", len(p.Instrs))
		}
		fmt.Fprintf(stdout, " instrs/stage=[%s ]\n", sizes)
		if *showAsm {
			single, err := dswp.Single(b.Loop)
			if err == nil {
				fmt.Fprintln(stdout, single)
			}
			for _, p := range res.Threads {
				fmt.Fprintln(stdout, p)
			}
		}
		if *runSim {
			simulate(stdout, b, *stages)
		}
	}
	return 0
}

// simulate runs the stages-deep pipeline on a SYNCOPTI machine of as many
// cores — the partition run just printed — and prints where each stage
// spends its cycles: the partition-quality view the stage assignment alone
// cannot give.
func simulate(w io.Writer, b *workloads.Benchmark, stages int) {
	pb, err := hfstream.BenchmarkByName(b.Name)
	if err != nil {
		fmt.Fprintf(w, "           run failed: %v\n", err)
		return
	}
	res, err := hfstream.RunCtx(context.Background(), pb, hfstream.SyncOpti.WithCores(stages))
	if err != nil {
		fmt.Fprintf(w, "           run failed: %v\n", err)
		return
	}
	for i := range res.StallSummaries {
		fmt.Fprintf(w, "           stage %d: %d cycles (%d issuing), stalls: %s\n",
			i, res.CoreCycles[i], res.IssueCycles[i], res.StallSummaries[i])
	}
}
