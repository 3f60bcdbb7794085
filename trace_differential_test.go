package hfstream_test

// The trace row of the differential battery. sim.Run fast-forwards a
// traced run like any other, which is sound only while the trace itself
// cannot tell the two kernels apart: a stall run must reach the sink as one
// KindStall event with a duration however many cycles were jumped over,
// and every other event must come from a cycle both kernels tick.
// TestTraceFastForwardInvariant pins that on whole machines — the bytes
// trace.WriteChrome emits, the ring's drop count and the metrics snapshot
// must all be equal with and without WithoutFastForward — where
// core.TestTracerCoalescesStallRuns checks one core in isolation.

import (
	"bytes"
	"context"
	"testing"

	"hfstream"
	"hfstream/fault"
	"hfstream/trace"
)

// traceCell is one traced run of the grid.
type traceCell struct {
	bench, design string
	opts          []hfstream.RunOpt
}

// traceCells is both golden benchmarks on all seven designs, plus the
// machines the dual-core grid cannot reach: a 3-core chain, a
// parallel-stage MPMC cell and a run under a seeded delay-fault plan.
func traceCells() []traceCell {
	var cells []traceCell
	for _, bench := range diffBenches {
		for _, d := range hfstream.Designs() {
			cells = append(cells, traceCell{bench: bench, design: d.Name()})
		}
	}
	return append(cells,
		traceCell{bench: "fft2", design: "HEAVYWT_3CORE"},
		traceCell{bench: "fft2", design: "MPMC_Q64"},
		traceCell{bench: "adpcmdec", design: "SYNCOPTI",
			opts: []hfstream.RunOpt{hfstream.WithFaults(fault.RandomDelay(7, 3))}},
	)
}

// tracedRun runs one cell into a fresh ring of the given capacity and
// returns the exported trace, the ring's drop count and the metrics bytes.
func tracedRun(t *testing.T, c traceCell, ringCap int, extra ...hfstream.RunOpt) (chrome []byte, dropped uint64, metrics []byte) {
	t.Helper()
	b, err := hfstream.BenchmarkByName(c.bench)
	if err != nil {
		t.Fatal(err)
	}
	d, err := hfstream.DesignByName(c.design)
	if err != nil {
		t.Fatal(err)
	}
	sink := trace.NewBuffer(ringCap)
	var m, out bytes.Buffer
	opts := append([]hfstream.RunOpt{hfstream.WithTrace(sink), hfstream.WithMetrics(&m)}, c.opts...)
	if _, err := hfstream.RunCtx(context.Background(), b, d, append(opts, extra...)...); err != nil {
		t.Fatalf("%s/%s: %v", c.bench, c.design, err)
	}
	if err := trace.WriteChrome(&out, sink.Events(), sink.Dropped()); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), sink.Dropped(), m.Bytes()
}

func TestTraceFastForwardInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid, traced twice per ring size")
	}
	for _, ring := range []struct {
		name string
		cap  int
		// whole: the ring must hold every event of the run, so the
		// comparison covers the run from its first cycle.
		whole bool
	}{
		{"whole-run", 1 << 18, true},
		// A ring the runs overflow many times over: both kernels must have
		// overwritten the same events.
		{"ring-1024", 1024, false},
	} {
		t.Run(ring.name, func(t *testing.T) {
			for _, c := range traceCells() {
				ffTrace, ffDropped, ffMetrics := tracedRun(t, c, ring.cap)
				refTrace, refDropped, refMetrics := tracedRun(t, c, ring.cap, hfstream.WithoutFastForward())
				name := c.bench + "/" + c.design
				if ring.whole && refDropped != 0 {
					t.Errorf("%s: %d-event ring dropped %d events; the whole-run leg needs a larger one", name, ring.cap, refDropped)
				}
				if !ring.whole && refDropped == 0 {
					t.Errorf("%s: a %d-event ring held the whole run; the overwrite path went uncompared", name, ring.cap)
				}
				if ffDropped != refDropped {
					t.Errorf("%s: dropped %d events fast-forwarding, %d per-cycle", name, ffDropped, refDropped)
				}
				if !bytes.Equal(ffTrace, refTrace) {
					t.Errorf("%s: trace differs between fast-forward and per-cycle kernels (%d vs %d bytes)", name, len(ffTrace), len(refTrace))
				}
				if !bytes.Equal(ffMetrics, refMetrics) {
					t.Errorf("%s: metrics differ between fast-forward and per-cycle kernels", name)
				}
			}
		})
	}
}
