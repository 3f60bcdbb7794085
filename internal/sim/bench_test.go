package sim_test

import (
	"testing"

	"hfstream/internal/design"
	"hfstream/internal/dswp"
	"hfstream/internal/isa"
	"hfstream/internal/lower"
	"hfstream/internal/mem"
	"hfstream/internal/memsys"
	"hfstream/internal/sim"
	"hfstream/internal/workloads"
)

// BenchmarkRunCell times sim.Run alone on three cells of the evaluation:
// a controller-queue design, software queues on a memory-bound kernel, and
// a four-stage synchronization-array chain. The threads, the machine and
// the input image are built once; every iteration runs on a fresh
// copy-on-write fork of the image, as the experiment harness does.
func BenchmarkRunCell(b *testing.B) {
	for _, cell := range []struct {
		bench  string
		design design.Config
	}{
		{"wc", design.SyncOptiConfig()},
		{"mcf", design.ExistingConfig()},
		{"fft2", design.HeavyWTConfig().WithCores(4)},
	} {
		b.Run(cell.bench+"/"+cell.design.Name(), func(b *testing.B) {
			cfg, base, threads := buildCell(b, cell.bench, cell.design)
			b.ReportAllocs()
			b.ResetTimer()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(cfg, base.Fork(), threads)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
		})
	}
}

// buildCell plans a cell the way the experiment harness does: the
// benchmark's own pipeline on two cores, a DSWP chain past two, software
// queues lowered.
func buildCell(b *testing.B, bench string, d design.Config) (sim.Config, *mem.Memory, []sim.Thread) {
	bm, err := workloads.ByName(bench)
	if err != nil {
		b.Fatal(err)
	}
	var progs []*isa.Program
	var routes []memsys.QueueRoute
	if d.Cores == 2 {
		pair, _, err := bm.Pipelined()
		if err != nil {
			b.Fatal(err)
		}
		progs = pair[:]
	} else {
		pr, err := dswp.PartitionN(bm.Loop, d.Cores)
		if err != nil {
			b.Fatal(err)
		}
		progs = pr.Threads
		for _, r := range pr.Routes {
			routes = append(routes, memsys.QueueRoute{Producer: r.Producer, Consumer: r.Consumer})
		}
	}
	var threads []sim.Thread
	for _, p := range progs {
		if d.SoftwareQueues() {
			if p, err = lower.Lower(p, d.Layout()); err != nil {
				b.Fatal(err)
			}
		}
		threads = append(threads, sim.Thread{Prog: p})
	}
	cfg := d.SimConfig()
	cfg.Preload = bm.InputRegions
	cfg.Mem.QueueRoutes = routes
	base := mem.New()
	bm.Setup(base)
	return cfg, base, threads
}
