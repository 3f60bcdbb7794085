// Command hfsim runs one benchmark on one design point and prints the
// detailed result: cycles, per-core breakdowns, stall attribution,
// communication ratios and memory-system counters. It can also emit a
// Chrome trace_event JSON file of the run (load it in about:tracing or
// https://ui.perfetto.dev) and a machine-readable metrics snapshot.
//
// Usage:
//
//	hfsim -bench wc -design SYNCOPTI_SC+Q64
//	hfsim -bench mcf -design HEAVYWT -single
//	hfsim -bench wc -trace out.json
//	hfsim -bench wc -metrics -
//	hfsim -bench wc -diagnose diag.json
//	hfsim -list
//
// Exit status: 0 on success, 1 on usage or harness errors, 2 when the
// simulated machine deadlocked (the forensic diagnosis is printed and,
// with -diagnose, written as JSON), 3 when the run finished but the
// fabric never quiesced.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"hfstream"
	"hfstream/trace"
)

// writeDiagnosis serializes a forensic snapshot to path ("" = skip,
// "-" = stderr).
func writeDiagnosis(path string, d *hfstream.Diagnosis) {
	if path == "" || d == nil {
		return
	}
	buf, err := hfstream.DiagnosisJSON(d)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfsim:", err)
		return
	}
	if path == "-" {
		os.Stderr.Write(buf)
		return
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "hfsim:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "hfsim: wrote diagnosis to %s\n", path)
}

func main() {
	var (
		benchName  = flag.String("bench", "wc", "benchmark name (see -list)")
		designName = flag.String("design", "SYNCOPTI", "design point (see -list)")
		single     = flag.Bool("single", false, "run the single-threaded baseline instead")
		list       = flag.Bool("list", false, "list benchmarks and design points")
		tracePath  = flag.String("trace", "", "write a Chrome trace_event JSON file of issue/stall/queue/bus events")
		traceCap   = flag.Int("tracecap", 0, fmt.Sprintf("trace ring capacity in events, at most %d (0 = default 64k; older events are dropped); the ring is 40 bytes an event, and writing -trace adds 72 bytes a held event, 1792 MiB in all at the bound", maxTraceCap))
		metrics    = flag.String("metrics", "", "write the metrics JSON snapshot to this file (\"-\" for stdout)")
		sample     = flag.Uint64("sample", 0, "sample throughput every N cycles and print sparklines")
		csv        = flag.Bool("csv", false, "with -sample: emit the samples as CSV instead")
		diagnose   = flag.String("diagnose", "", "write the structured deadlock/unquiesced diagnosis JSON to this file (\"-\" for stderr)")
	)
	flag.Parse()

	if *list {
		fmt.Println("benchmarks:")
		for _, b := range hfstream.Benchmarks() {
			fmt.Printf("  %-10s %-14s %s (%d%% of execution time)\n",
				b.Name(), b.Suite(), b.Function(), b.ExecPct())
		}
		fmt.Println("designs:", strings.Join(hfstream.DesignNames(), " "))
		return
	}

	// Resolved up front so that a bad name or capacity fails before any
	// file is created, and because the report below prints from them.
	if err := checkTraceCap(*traceCap); err != nil {
		fmt.Fprintln(os.Stderr, "hfsim:", err)
		os.Exit(1)
	}
	b, err := hfstream.BenchmarkByName(*benchName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfsim:", err)
		os.Exit(1)
	}
	d, err := hfstream.DesignByName(*designName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfsim:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var opts []hfstream.RunOpt
	if *sample > 0 {
		opts = append(opts, hfstream.WithSampleInterval(*sample))
	}
	var buf *trace.Sink
	if *tracePath != "" {
		buf = trace.NewBuffer(*traceCap)
		opts = append(opts, hfstream.WithTrace(buf))
	}
	if *metrics != "" {
		mf := os.Stdout
		if *metrics != "-" {
			mf, err = os.Create(*metrics)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hfsim:", err)
				os.Exit(1)
			}
			defer mf.Close()
		}
		opts = append(opts, hfstream.WithMetrics(mf))
	}

	// The run itself is a Spec, executed the way the service executes one.
	spec := hfstream.Spec{Bench: *benchName, Design: *designName}
	if *single {
		spec = hfstream.Spec{Bench: *benchName, Single: true}
	}
	res, err := spec.RunCtx(ctx, opts...)
	if err != nil {
		// A deadlock carries the full forensic snapshot: render it, write
		// the machine-readable form if asked, and exit with a dedicated
		// status so harnesses can tell "hung machine" from "bad flags".
		var dl *hfstream.DeadlockError
		if errors.As(err, &dl) && dl.Diag != nil {
			fmt.Fprintf(os.Stderr, "hfsim: deadlock detected\n%s", dl.Diag.String())
			writeDiagnosis(*diagnose, dl.Diag)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "hfsim:", err)
		os.Exit(1)
	}
	unquiesced := false
	if res.UnquiescedExit {
		unquiesced = true
		fmt.Fprintf(os.Stderr, "hfsim: warning: cores done but fabric never quiesced\n%s", res.UnquiescedDetail)
		writeDiagnosis(*diagnose, res.Diagnosis)
	}
	for _, s := range res.FaultLog {
		fmt.Fprintf(os.Stderr, "hfsim: fault fired: %s\n", s)
	}
	defer func() {
		if unquiesced {
			os.Exit(3)
		}
	}()
	if buf != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hfsim:", err)
			os.Exit(1)
		}
		werr := trace.WriteChrome(f, buf.Events(), buf.Dropped())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "hfsim:", werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "hfsim: wrote %d trace events to %s (%d dropped)\n",
			buf.Len(), *tracePath, buf.Dropped())
	}
	if *metrics == "-" {
		return
	}
	if *sample > 0 && *csv {
		fmt.Print(res.TimeSeriesCSV(*sample))
		return
	}

	fmt.Printf("%s on %s: %d cycles (%d iterations, %.1f cycles/iter)\n",
		b.Name(), label(d, *single), res.Cycles, b.Iterations(),
		float64(res.Cycles)/float64(b.Iterations()))
	for i := range res.Breakdowns {
		fmt.Printf("  core %d (%s): %s\n", i, role(d, i, len(res.Breakdowns)), res.Breakdowns[i].String())
		fmt.Printf("    instructions: %d (comm %d, ratio %.3f)\n",
			res.Instructions[i], res.CommInstructions[i], res.CommRatio(i))
		fmt.Printf("    issue cycles: %d of %d; stalls: %s\n",
			res.IssueCycles[i], res.CoreCycles[i], res.StallSummaries[i])
	}
	fmt.Printf("  bus: %d grants, %d beats, %d arbitration-wait cycles\n",
		res.BusGrants, res.BusBeats, res.BusArbWait)
	fmt.Printf("  L3: %d hits, %d misses; memory accesses: %d\n",
		res.L3Hits, res.L3Misses, res.MemAccesses)
	if !*single {
		fmt.Printf("  streaming: forwards %v, bulk ACKs %v, probes %v, stream-cache hits %v\n",
			res.WriteForwards, res.BulkAcks, res.Probes, res.StreamCacheHits)
		if res.SAFullStalls+res.SAEmptyStalls > 0 {
			fmt.Printf("  synchronization array: %d full stalls, %d empty stalls\n",
				res.SAFullStalls, res.SAEmptyStalls)
		}
	}
	if *sample > 0 {
		fmt.Print(res.TimeSeriesReport(*sample))
	}
}

// maxTraceCap bounds -tracecap: 1<<24 events is a 640 MiB ring, and
// exporting a full one holds its 1 152 MiB of Events besides.
const maxTraceCap = 1 << 24

// checkTraceCap rejects a -tracecap the ring cannot be allocated for: a
// negative one, or one past maxTraceCap, which would exhaust memory (or,
// far enough past it, fail the allocation outright).
func checkTraceCap(n int) error {
	if n < 0 || n > maxTraceCap {
		return fmt.Errorf("-tracecap %d is outside [0, %d] events (each is 40 bytes; 0 means %d)", n, maxTraceCap, trace.DefaultCap)
	}
	return nil
}

// role names what core i of an n-core run does, read off the design's
// pipeline shape: the paper's producer and consumer at two cores, "stage
// 1/n" to "stage n/n" along a longer chain, and on a parallel-stage
// design the workers (numbered like their lanes, from 0) and the merger
// on the last core. One core is the single-threaded baseline, whatever
// the design.
func role(d hfstream.Design, i, n int) string {
	switch {
	case n == 1:
		return "single"
	case d.ParallelStage() && i == n-1:
		return "merger"
	case d.ParallelStage():
		return fmt.Sprintf("worker %d", i)
	case n > 2:
		return fmt.Sprintf("stage %d/%d", i+1, n)
	case i == 0:
		return "producer"
	}
	return "consumer"
}

func label(d hfstream.Design, single bool) string {
	if single {
		return "single-threaded baseline"
	}
	return d.Name()
}
