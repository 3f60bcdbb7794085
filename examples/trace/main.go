// Record a cycle-level event trace of one benchmark run and export it in
// Chrome trace_event format: instruction issue, queue operations, bus
// grants and coalesced stall runs, one lane per core plus one for the
// bus. Open the output in chrome://tracing or https://ui.perfetto.dev.
//
//	go run ./examples/trace [benchmark] [design] [out.json]
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"hfstream"
	"hfstream/trace"
)

func main() {
	benchName, designName, out := "bzip2", "HEAVYWT", "trace.json"
	if len(os.Args) > 1 {
		benchName = os.Args[1]
	}
	if len(os.Args) > 2 {
		designName = os.Args[2]
	}
	if len(os.Args) > 3 {
		out = os.Args[3]
	}
	b, err := hfstream.BenchmarkByName(benchName)
	if err != nil {
		log.Fatal(err)
	}
	d, err := hfstream.DesignByName(designName)
	if err != nil {
		log.Fatal(err)
	}

	buf := trace.NewBuffer(1 << 18)
	res, err := hfstream.RunCtx(context.Background(), b, d, hfstream.WithTrace(buf))
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.WriteChrome(f, buf.Events(), buf.Dropped()); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on %s: %d cycles\n", b.Name(), d.Name(), res.Cycles)
	for i, stalls := range res.StallSummaries {
		fmt.Printf("  core %d: %d issue cycles of %d, stalls: %s\n",
			i, res.IssueCycles[i], res.CoreCycles[i], stalls)
	}
	fmt.Printf("wrote %d events to %s (%d dropped); open it in chrome://tracing or ui.perfetto.dev\n",
		buf.Len(), out, buf.Dropped())
}
