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
	"hfstream/trace"
)

// BenchmarkRunCell times sim.Run alone on six cells of the evaluation:
// a controller-queue design, software queues on a memory-bound kernel, a
// four-stage synchronization-array chain, two six-stage chains whose
// cores spend most cycles on a refused queue operation (a full array
// queue, and an OzQ full of dormant produces), and one traced cell run the
// way the spine's referee workload runs it: fast-forward off, into a fresh
// trace.NewSink() ring each iteration, so its B/op is mostly the ring. The
// threads, the machine and the input image are built once; every iteration
// runs on a fresh copy-on-write fork of the image, as the experiment
// harness does.
func BenchmarkRunCell(b *testing.B) {
	for _, cell := range []struct {
		bench  string
		design design.Config
		sink   bool
	}{
		{"wc", design.SyncOptiConfig(), false},
		{"mcf", design.ExistingConfig(), false},
		{"fft2", design.HeavyWTConfig().WithCores(4), false},
		{"art", design.HeavyWTConfig().WithCores(6), false},
		{"equake", design.SyncOptiSCQ64Config().WithCores(6), false},
		{"adpcmdec", design.SyncOptiConfig(), true},
	} {
		name := cell.bench + "/" + cell.design.Name()
		if cell.sink {
			name += "/sink"
		}
		b.Run(name, func(b *testing.B) {
			cfg, base, threads := buildCell(b, cell.bench, cell.design)
			cfg.DisableFastForward = cell.sink
			b.ReportAllocs()
			b.ResetTimer()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				if cell.sink {
					cfg.Trace = trace.NewSink()
				}
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
