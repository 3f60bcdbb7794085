package hfstream_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"hfstream"
	"hfstream/trace"
)

// traceBytePins is one line per traced run: the run's name, the sha256 of
// trace.WriteChrome's output and the ring's drop count. The runs are every
// traceCells() cell at three ring sizes (whole run, a ring overwritten many
// times, DefaultCap) and the referee grid — bzip2, adpcmdec, equake and wc
// on the seven designs, fast-forward off, into a trace.NewSink() ring.
func traceBytePins(t *testing.T) []string {
	var lines []string
	pin := func(name string, c traceCell, ringCap int, extra ...hfstream.RunOpt) {
		chrome, dropped, _ := tracedRun(t, c, ringCap, extra...)
		lines = append(lines, fmt.Sprintf("%s %x %d", name, sha256.Sum256(chrome), dropped))
	}
	for _, ringCap := range []int{1 << 18, 1024, trace.DefaultCap} {
		for _, c := range traceCells() {
			name := fmt.Sprintf("ring-%d/%s/%s", ringCap, c.bench, c.design)
			if len(c.opts) != 0 {
				name += "+faults"
			}
			pin(name, c, ringCap)
		}
	}
	for _, bench := range []string{"bzip2", "adpcmdec", "equake", "wc"} {
		for _, d := range hfstream.Designs() {
			// A capacity of 0 is trace.NewSink()'s ring.
			pin("referee/"+bench+"/"+d.Name(), traceCell{bench: bench, design: d.Name()}, 0, hfstream.WithoutFastForward())
		}
	}
	return lines
}

// TestTraceBytesPinned compares the exported trace of every pinned run with
// testdata/trace_sha256.txt, which was written before the ring's record
// layout changed and is never regenerated: a change to the trace package or
// to a producer that moves one byte of one exported trace, or one dropped
// event, must explain itself here. TestTraceFastForwardInvariant compares
// two kernels of one tree; this test compares the tree with its past.
func TestTraceBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("79 traced runs, each exported and hashed")
	}
	raw, err := os.ReadFile("testdata/trace_sha256.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := traceBytePins(t)
	if len(got) != len(want) {
		t.Fatalf("%d pinned runs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got  %s\nwant %s", got[i], want[i])
		}
	}
}
