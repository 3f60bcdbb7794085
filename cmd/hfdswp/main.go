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
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"hfstream"
	"hfstream/internal/dswp"
	"hfstream/internal/workloads"
)

func main() {
	var (
		benchName = flag.String("bench", "", "benchmark to inspect (default: all)")
		stages    = flag.Int("stages", 2, "pipeline stages")
		showAsm   = flag.Bool("asm", false, "print the generated thread programs")
		runSim    = flag.Bool("run", false, "simulate the -stages pipeline on SYNCOPTI and print per-stage stall attribution")
	)
	flag.Parse()

	var list []*workloads.Benchmark
	if *benchName != "" {
		b, err := workloads.ByName(*benchName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hfdswp:", err)
			os.Exit(1)
		}
		list = []*workloads.Benchmark{b}
	} else {
		list = workloads.All()
	}

	for _, b := range list {
		if b.Loop == nil {
			fmt.Printf("%-10s hand-partitioned (nested loop); no IR to inspect\n", b.Name)
			if *runSim {
				simulate(b, *stages)
			}
			continue
		}
		res, err := dswp.PartitionN(b.Loop, *stages)
		if err != nil {
			fmt.Printf("%-10s %v\n", b.Name, err)
			continue
		}
		counts := make([]int, *stages)
		for _, th := range res.Assignment {
			counts[th]++
		}
		fmt.Printf("%-10s stages=%d queues=%d condStreamed=%v replicated=%d nodes/stage=%v",
			b.Name, res.Stages, res.QueueCount, res.CondStreamed, len(res.Replicated), counts)
		sizes := ""
		for _, p := range res.Threads {
			sizes += fmt.Sprintf(" %d", len(p.Instrs))
		}
		fmt.Printf(" instrs/stage=[%s ]\n", sizes)
		if *showAsm {
			single, err := dswp.Single(b.Loop)
			if err == nil {
				fmt.Println(single)
			}
			for _, p := range res.Threads {
				fmt.Println(p)
			}
		}
		if *runSim {
			simulate(b, *stages)
		}
	}
}

// simulate runs the stages-deep pipeline on a SYNCOPTI machine of as many
// cores — the partition main just printed — and prints where each stage
// spends its cycles: the partition-quality view the stage assignment alone
// cannot give.
func simulate(b *workloads.Benchmark, stages int) {
	pb, err := hfstream.BenchmarkByName(b.Name)
	if err != nil {
		fmt.Printf("           run failed: %v\n", err)
		return
	}
	res, err := hfstream.RunCtx(context.Background(), pb, hfstream.SyncOpti.WithCores(stages))
	if err != nil {
		fmt.Printf("           run failed: %v\n", err)
		return
	}
	for i := range res.StallSummaries {
		fmt.Printf("           stage %d: %d cycles (%d issuing), stalls: %s\n",
			i, res.CoreCycles[i], res.IssueCycles[i], res.StallSummaries[i])
	}
}
