package hfstream_test

// The trace row of the differential battery. sim.Run fast-forwards a
// traced run like any other, which is sound only while the trace cannot
// tell the kernels apart: a stall run must reach the sink as one KindStall
// event however many cycles were jumped over, and every other event must
// come from a cycle both kernels tick. wholeRun holds whole machines to
// that on every traceCells() cell;
// core.TestTracerCoalescesStallRuns checks one core in isolation.

import (
	"bytes"
	"context"
	"slices"
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

// name is the cell's run name in testdata/trace_sha256.txt, less its ring.
func (c traceCell) name() string {
	if len(c.opts) != 0 {
		return c.bench + "/" + c.design + "+faults"
	}
	return c.bench + "/" + c.design
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

// wholeRunCap is a ring every pinned run fits in: the longest, wc on
// EXISTING, records 247 293 events.
const wholeRunCap = 1 << 18

// traceRun runs one cell into a fresh ring of the given capacity and
// returns the ring and the metrics bytes.
func traceRun(t *testing.T, c traceCell, ringCap int, extra ...hfstream.RunOpt) (*trace.Buffer, []byte) {
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
	var m bytes.Buffer
	opts := append([]hfstream.RunOpt{hfstream.WithTrace(sink), hfstream.WithMetrics(&m)}, c.opts...)
	if _, err := hfstream.RunCtx(context.Background(), b, d, append(opts, extra...)...); err != nil {
		t.Fatalf("%s/%s: %v", c.bench, c.design, err)
	}
	return sink, m.Bytes()
}

// wholeRun records c into a whole-run ring per-cycle and, with ff, also
// fast-forwarding; no ring may drop an event, and the two kernels must give
// equal events and metrics. It returns the per-cycle events.
func wholeRun(t *testing.T, c traceCell, ff bool) []trace.Event {
	t.Helper()
	ref, refMetrics := traceRun(t, c, wholeRunCap, hfstream.WithoutFastForward())
	if ref.Dropped() != 0 {
		t.Fatalf("%s/%s: a %d-event ring dropped %d events; the whole-run recording needs a larger one", c.bench, c.design, wholeRunCap, ref.Dropped())
	}
	events := ref.Events()
	if ff {
		got, metrics := traceRun(t, c, wholeRunCap)
		if got.Dropped() != 0 || !slices.Equal(got.Events(), events) || !bytes.Equal(metrics, refMetrics) {
			t.Errorf("%s/%s: fast-forwarding recorded %d events (%d dropped) and %d metrics bytes; per-cycle, %d events and %d bytes, and they are not equal",
				c.bench, c.design, got.Len(), got.Dropped(), len(metrics), len(events), len(refMetrics))
		}
	}
	return events
}

// cellRecording is what the trace tests keep of one traceCells() cell's
// whole-run recordings: the pin of each ring size, keyed by capacity, and
// the 1024-event ring derived from the run.
type cellRecording struct {
	pins     map[int]string
	ring1024 *trace.Buffer
}

// recorded holds each cell recorded so far, by name, so that
// TestTraceFastForwardInvariant and TestTraceBytesPinned simulate a cell
// once per kernel between them.
var recorded = map[string]cellRecording{}

// recordCell records c on both kernels (wholeRun) once per test binary and
// derives its pinned rings from the per-cycle events.
func recordCell(t *testing.T, c traceCell) cellRecording {
	t.Helper()
	if r, ok := recorded[c.name()]; ok {
		return r
	}
	events := wholeRun(t, c, true)
	r := cellRecording{pins: map[int]string{}, ring1024: ringOf(events, 1024)}
	whole := pin(t, events, wholeRunCap)
	for _, k := range []int{wholeRunCap, 1024, trace.DefaultCap} {
		r.pins[k] = whole
		if len(events) > k {
			r.pins[k] = pin(t, events, k)
		}
	}
	recorded[c.name()] = r
	return r
}

// TestTraceFastForwardInvariant holds the fast-forwarding kernel to the
// per-cycle one on every traceCells() cell. whole-run requires equal event
// lists and metrics from whole-run recordings that dropped nothing; every
// smaller ring is then equal too, being derived from that list
// (trace.TestBufferKeepsLatest). ring-1024 checks the derivation against
// rings traced straight into a 1024-event buffer on both kernels.
func TestTraceFastForwardInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid, traced once per kernel")
	}
	t.Run("whole-run", func(t *testing.T) {
		for _, c := range traceCells() {
			recordCell(t, c)
		}
	})
	t.Run("ring-1024", func(t *testing.T) {
		for _, c := range traceCells() {
			derived := recordCell(t, c).ring1024
			if derived.Dropped() == 0 {
				t.Errorf("%s: a 1024-event ring holds the whole run; the overwrite path goes uncompared", c.name())
			}
			if c.name() != "fft2/MPMC_Q64" {
				continue
			}
			for _, extra := range [][]hfstream.RunOpt{nil, {hfstream.WithoutFastForward()}} {
				if ring, _ := traceRun(t, c, 1024, extra...); !slices.Equal(ring.Events(), derived.Events()) || ring.Dropped() != derived.Dropped() {
					t.Errorf("%s, fast-forward %t: a 1024-event ring differs from the one derived from the whole run", c.name(), extra == nil)
				}
			}
		}
	})
}
