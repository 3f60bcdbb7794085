package main

import (
	"context"
	"testing"
	"time"

	"hfstream"
	"hfstream/serve"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		raw  string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"a,b", []string{"a", "b"}},
		{" a , b ,", []string{"a", "b"}},
	}
	for _, c := range cases {
		got := splitList(c.raw)
		if len(got) != len(c.want) {
			t.Fatalf("splitList(%q) = %v, want %v", c.raw, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("splitList(%q) = %v, want %v", c.raw, got, c.want)
			}
		}
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 3,8")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 8 {
		t.Fatalf("parseInts = %v, %v", got, err)
	}
	for _, bad := range []string{"x", "0", "-2", "1,x"} {
		if _, err := parseInts(bad); err == nil {
			t.Fatalf("parseInts(%q) accepted", bad)
		}
	}
}

// TestExpandCells: the spec universe is the server's own expansion of a
// /v1/sweep grid over the -benches/-designs/-single flags, so a draw's
// rank names the cell the service would name.
func TestExpandCells(t *testing.T) {
	universe := func(benches, designs string, single bool) ([]hfstream.Spec, error) {
		return serve.SweepRequest{Benches: splitList(benches), Designs: splitList(designs), Single: single}.Cells()
	}
	// Explicit benches x designs (N-core machines included, by name),
	// plus single: 1 bench x (1 single + 4 designs) = 5 cells, the
	// baseline first and the designs in flag order.
	cells, err := universe("adpcmdec", "EXISTING,SYNCOPTI,EXISTING_3CORE,MPMC", true)
	if err != nil {
		t.Fatal(err)
	}
	want := []hfstream.Spec{
		{Bench: "adpcmdec", Single: true},
		{Bench: "adpcmdec", Design: "EXISTING"}, {Bench: "adpcmdec", Design: "SYNCOPTI"},
		{Bench: "adpcmdec", Design: "EXISTING_3CORE"}, {Bench: "adpcmdec", Design: "MPMC"},
	}
	if len(cells) != len(want) {
		t.Fatalf("got %d cells, want %d", len(cells), len(want))
	}
	for i, c := range cells {
		if c != want[i] {
			t.Errorf("cell %d is %+v, want %+v", i, c, want[i])
		}
		if _, err := c.Key(); err != nil {
			t.Fatalf("cell %+v has no key: %v", c, err)
		}
	}

	// Wildcards expand to the full registries.
	all, err := universe("*", "*", false)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(hfstream.Benchmarks()) * len(hfstream.Designs()); len(all) != n {
		t.Fatalf("wildcard universe = %d cells, want %d", len(all), n)
	}

	if _, err := universe("nosuchbench", "EXISTING", false); err == nil {
		t.Fatal("unknown bench accepted")
	}
	if _, err := universe("bzip2", "", false); err == nil {
		t.Fatal("empty universe accepted")
	}
}

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := percentile(sorted, 1); got != 10 {
		t.Fatalf("p100 = %v", got)
	}
	if got := percentile(sorted, 0.5); got != 5 {
		t.Fatalf("p50 = %v", got)
	}
}

// TestRunInprocPhases drives the same harness main uses: a 1-replica
// phase and a 3-replica peered phase over a tiny working set. This is a
// functional smoke (the peer-hit floor lives in make load-smoke); here we
// assert the closed loop works, nothing errors or is shed, and the
// tallies are coherent.
func TestRunInprocPhases(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real simulations")
	}
	cells, err := serve.SweepRequest{Benches: []string{"bzip2"}, Designs: []string{"EXISTING", "MEMOPTI"}, Single: true}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	load := loadConfig{cells: cells, conc: 4, duration: 400 * time.Millisecond, skew: 1.2, seed: 1}
	cfg := inprocConfig{
		workers:     1,
		queueDepth:  64,
		cacheBytes:  8 << 20,
		replication: 2,
		peerTimeout: 250 * time.Millisecond,
	}

	ph1, err := runInprocPhase(context.Background(), 1, cfg, load)
	if err != nil {
		t.Fatal(err)
	}
	if ph1.Replicas != 1 || ph1.Succeeded == 0 || ph1.Errors != 0 || ph1.Shed != 0 {
		t.Fatalf("1-replica phase: %+v", ph1)
	}
	if ph1.Requests != ph1.Succeeded+ph1.Shed+ph1.Errors {
		t.Fatalf("tally mismatch: %+v", ph1)
	}
	if ph1.Peer != nil {
		t.Fatal("single replica must not report peer stats")
	}
	if len(ph1.Sims) != 1 || ph1.Sims[0] == 0 || ph1.Sims[0] > uint64(len(cells)) {
		t.Fatalf("sims per replica = %v, want 1..%d sims on 1 replica", ph1.Sims, len(cells))
	}
	if ph1.P50Ms < 0 || ph1.P99Ms < ph1.P50Ms {
		t.Fatalf("percentiles incoherent: %+v", ph1)
	}

	ph3, err := runInprocPhase(context.Background(), 3, cfg, load)
	if err != nil {
		t.Fatal(err)
	}
	if ph3.Replicas != 3 || ph3.Succeeded == 0 || ph3.Errors != 0 || ph3.Shed != 0 {
		t.Fatalf("3-replica phase: %+v", ph3)
	}
	if len(ph3.Sims) != 3 {
		t.Fatalf("sims per replica = %v, want 3 entries", ph3.Sims)
	}
	if ph3.Peer == nil || ph3.Peer.Replicas != 3 {
		t.Fatalf("clustered phase must aggregate peer stats: %+v", ph3.Peer)
	}
	if got := ph3.Misses + ph3.HitsLocal + ph3.HitsPeer + ph3.Coalesced; got != ph3.Succeeded {
		t.Fatalf("provenance split %d != succeeded %d", got, ph3.Succeeded)
	}
}
