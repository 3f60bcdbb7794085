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

// ringOf feeds a whole-run event list through a k-event ring: the ring the
// run would have ended with traced straight into trace.NewBuffer(k), as a
// ring keeps the last k events and counts the rest as dropped
// (trace.TestBufferKeepsLatest).
func ringOf(events []trace.Event, k int) *trace.Buffer {
	ring := trace.NewBuffer(k)
	for _, e := range events {
		ring.Add(e)
	}
	return ring
}

// pin feeds events through a k-event ring and returns the ring's line in
// testdata/trace_sha256.txt: sha256 of trace.WriteChrome's output, and the
// drop count.
func pin(t *testing.T, events []trace.Event, k int) string {
	t.Helper()
	ring, h := ringOf(events, k), sha256.New()
	if err := trace.WriteChrome(h, ring.Events(), ring.Dropped()); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x %d", h.Sum(nil), ring.Dropped())
}

// TestTraceBytesPinned holds every pinned run's export to
// testdata/trace_sha256.txt, which is never regenerated: moving one byte of
// one exported trace, or one dropped event, must explain itself here. The
// runs are every traceCells() cell into rings of 1<<18 (the whole run),
// 1024 and DefaultCap events, and four benchmarks on the seven designs,
// fast-forward off, into a trace.NewSink() ring. Each cell is simulated
// once per kernel (recordCell, shared with TestTraceFastForwardInvariant)
// and every ring is derived from the whole-run list; a ring the run fits
// in, and a referee row of a traceCells() cell, reuse a document already
// hashed.
func TestTraceBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("50 traced runs, 54 exports")
	}
	raw, err := os.ReadFile("testdata/trace_sha256.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := map[string]string{} // run name -> its pin
	for _, c := range traceCells() {
		for k, p := range recordCell(t, c).pins {
			got[fmt.Sprintf("ring-%d/%s", k, c.name())] = p
		}
	}
	for _, bench := range []string{"bzip2", "adpcmdec", "equake", "wc"} {
		for _, d := range hfstream.Designs() {
			p, ok := got[fmt.Sprintf("ring-%d/%s/%s", trace.DefaultCap, bench, d.Name())]
			if !ok {
				p = pin(t, wholeRun(t, traceCell{bench: bench, design: d.Name()}, false), trace.DefaultCap)
			}
			got["referee/"+bench+"/"+d.Name()] = p
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d pinned runs, want %d", len(got), len(want))
	}
	for _, line := range want {
		name, p, _ := strings.Cut(line, " ")
		if got[name] != p {
			t.Errorf("%s: got %q, want %q", name, got[name], p)
		}
	}
}
