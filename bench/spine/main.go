// Command spine is the repository's benchmark: six workloads, from one
// sim.Run to a three-replica cluster, each measured end to end and layer
// by layer, with every host time expressed in executions of a frozen
// yardstick kernel so that two runs on a drifting machine can be compared.
//
//	bash bench/spine/run.sh                      every workload, untraced and traced: one JSON report
//	bash bench/spine/run.sh -workload matrix2    one workload's end-to-end metrics (the driver's call)
//	bash bench/spine/run.sh -workload matrix2 -trace 1   its per-layer metrics and a trace_event file
//	bash bench/spine/run.sh -selfcheck           two sets of runs of this code, compared with the bounds
//	bash bench/spine/run.sh -list                the metric, workload and bound table
//
// run.sh builds this package into .bench_build/ and runs it; inside
// bench/spine, `go run .` does the same. README.md explains the design.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// parts is how many measuring processes share an untraced run's time
// budget. Each sets up from scratch, so setup_s is a median of fresh
// processes, and a layout or GC phase one process is unlucky with does
// not decide the run.
const parts = 3

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload (see -list); default: all of them, untraced and traced")
		seed      = flag.Int64("seed", 1, "seed of every generated op list")
		seconds   = flag.Float64("seconds", runSeconds, "how long the timed rounds of one run take")
		trace     = flag.Int("trace", 0, "1: report the per-layer metrics and write a trace_event file; 0: the end-to-end metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and fail unless the two sets agree within the bounds")
		list      = flag.Bool("list", false, "print the metric, workload and bound table")
		outDir    = flag.String("out", "out", "directory for trace_event files")
		child     = flag.Bool("child", false, "internal: be one measuring process and print its raw result")
		part      = flag.Int("part", 0, "internal: which measuring process this is")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	if !*list && !*child {
		if err := checkBenchmarkFile(); err != nil {
			fatal("%v", err)
		}
	}
	ctx := context.Background()
	h := harness{seed: *seed, seconds: *seconds, outDir: *outDir}

	switch {
	case *list:
		printList(os.Stdout)
	case *child:
		res, err := measure(ctx, runConfig{Workload: *workload, Seed: *seed, Part: *part,
			Seconds: *seconds, Trace: *trace == 1, OutDir: *outDir})
		if err != nil {
			fatal("%v", err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal("%v", err)
		}
	case *selfcheck:
		if !h.selfcheck() {
			os.Exit(1)
		}
	case *workload != "":
		if _, ok := workloadByName(*workload); !ok {
			fatal("unknown workload %q (see -list)", *workload)
		}
		rep, err := h.run(*workload, *trace == 1)
		if err != nil {
			fatal("%v", err)
		}
		rep.printSummary(os.Stderr)
		// The last line of standard output is the driver's contract.
		metrics := rep.EndToEnd
		if *trace == 1 {
			metrics = rep.PerLayer
		} else {
			metrics = gated(metrics)
		}
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{rep.Correct, rep.Attempted, rep.Failed, metrics})
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(line))
		if !rep.Correct {
			os.Exit(1)
		}
	default:
		doc, ok := h.set(false)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

// harness is the parent process: it starts measuring processes, one at a
// time, and reduces what they hand back.
type harness struct {
	seed    int64
	seconds float64
	outDir  string
}

// spawn runs one measuring process to completion and decodes its result.
func (h harness) spawn(workload string, part int, seconds float64, traced bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", workload, "-seed", strconv.FormatInt(h.seed, 10),
		"-part", strconv.Itoa(part), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", h.outDir}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s part %d: %w", workload, part, err)
	}
	var res runResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s part %d: result: %w", workload, part, err)
	}
	return &res, nil
}

// run measures one workload: untraced in `parts` processes that share the
// time budget, or traced in one.
func (h harness) run(workload string, traced bool) (*report, error) {
	if traced {
		res, err := h.spawn(workload, 0, h.seconds, true)
		if err != nil {
			return nil, err
		}
		return reduceRuns(workload, h.seed, []*runResult{res}), nil
	}
	var runs []*runResult
	for p := 0; p < parts; p++ {
		res, err := h.spawn(workload, p, h.seconds/parts, false)
		if err != nil {
			return nil, err
		}
		runs = append(runs, res)
	}
	return reduceRuns(workload, h.seed, runs), nil
}
