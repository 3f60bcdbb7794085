package workloads_test

import (
	"context"
	"testing"

	"hfstream/internal/design"
	"hfstream/internal/exp"
	"hfstream/internal/interp"
	"hfstream/internal/mem"
	"hfstream/internal/workloads"
)

// TestPipelinedMatchesSingleFunctionally checks DSWP correctness: the
// pipelined threads leave the output region in exactly the state the
// single-threaded kernel does, under the functional interpreter.
func TestPipelinedMatchesSingleFunctionally(t *testing.T) {
	for _, b := range workloads.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			want, err := exp.Expected(b)
			if err != nil {
				t.Fatal(err)
			}
			threads, queues, err := b.Pipelined()
			if err != nil {
				t.Fatal(err)
			}
			if queues < 1 {
				t.Fatalf("expected at least one queue, got %d", queues)
			}
			img := mem.New()
			b.Setup(img)
			m := interp.New(img, threads[0], threads[1])
			if err := m.Run(0); err != nil {
				t.Fatal(err)
			}
			for a := b.Out.Base; a < b.Out.End(); a += 8 {
				if got, exp := img.Read8(a), want.Read8(a); got != exp {
					t.Fatalf("out[%#x] = %#x, want %#x", a, got, exp)
				}
			}
		})
	}
}

// TestAllDesignsAllBenchmarks is the big end-to-end matrix: every
// benchmark on every design point must terminate and produce the oracle
// output.
func TestAllDesignsAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in long mode only")
	}
	configs := []design.Config{
		design.ExistingConfig(),
		design.MemOptiConfig(),
		design.SyncOptiConfig(),
		design.SyncOptiSCQ64Config(),
		design.HeavyWTConfig(),
	}
	for _, b := range workloads.All() {
		for _, cfg := range configs {
			b, cfg := b, cfg
			t.Run(b.Name+"/"+cfg.Name(), func(t *testing.T) {
				res, err := exp.RunBenchmarkOpts(context.Background(), b, cfg, exp.RunOpts{})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%s on %s: %d cycles, comm ratio p=%.2f c=%.2f",
					b.Name, cfg.Name(), res.Cycles, res.CommRatio(0), res.CommRatio(1))
			})
		}
	}
}

// TestSingleThreadedRuns checks the Figure 9 baselines.
func TestSingleThreadedRuns(t *testing.T) {
	for _, b := range workloads.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			res, err := exp.RunSingleOpts(context.Background(), b, exp.RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles == 0 {
				t.Fatal("zero cycles")
			}
		})
	}
}
