package exp

import (
	"context"
	"reflect"
	"testing"

	"hfstream/internal/design"
	"hfstream/internal/dswp"
	"hfstream/internal/mem"
	"hfstream/internal/memsys"
	"hfstream/internal/sim"
	"hfstream/internal/workloads"
)

// TestThreeStageSyncOpti runs a 3-stage pipeline on a 3-core SYNCOPTI
// machine: the memory-side streaming (forwards, bulk ACKs, probes) must
// route by the partition's queue map rather than the dual-core default.
func TestThreeStageSyncOpti(t *testing.T) {
	for _, name := range []string{"adpcmdec", "fir", "fft2"} {
		name := name
		t.Run(name, func(t *testing.T) {
			b, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dswp.PartitionN(b.Loop, 3)
			if err != nil {
				t.Skipf("not 3-stage partitionable: %v", err)
			}
			if len(res.Routes) != res.QueueCount {
				t.Fatalf("routes %d != queues %d", len(res.Routes), res.QueueCount)
			}

			cfg := design.SyncOptiSCQ64Config().SimConfig()
			cfg.Preload = b.InputRegions
			for _, rt := range res.Routes {
				cfg.Mem.QueueRoutes = append(cfg.Mem.QueueRoutes,
					memsys.QueueRoute{Producer: rt.Producer, Consumer: rt.Consumer})
			}
			img := mem.New()
			b.Setup(img)
			var threads []sim.Thread
			for _, p := range res.Threads {
				threads = append(threads, sim.Thread{Prog: p})
			}
			r, err := sim.Run(cfg, img, threads)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckOutput(b, img); err != nil {
				t.Fatal(err)
			}
			two, err := RunBenchmarkOpts(context.Background(), b, design.SyncOptiSCQ64Config(), RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s SYNCOPTI_SC+Q64: 2 stages %d cycles, 3 stages %d cycles",
				name, two.Cycles, r.Cycles)
			if float64(r.Cycles) > float64(two.Cycles)*1.25 {
				t.Errorf("3-stage (%d) much worse than 2-stage (%d)", r.Cycles, two.Cycles)
			}
		})
	}
}

// TestRoutesMatchAssignments: every queue's producer stage must own its
// source node.
func TestRoutesMatchAssignments(t *testing.T) {
	for _, b := range workloads.All() {
		if b.Loop == nil {
			continue
		}
		res, err := dswp.Partition(b.Loop)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for qi, rt := range res.Routes {
			if rt.Producer == rt.Consumer {
				t.Errorf("%s q%d: degenerate route %+v", b.Name, qi, rt)
			}
			if rt.Producer < 0 || rt.Producer >= res.Stages ||
				rt.Consumer < 0 || rt.Consumer >= res.Stages {
				t.Errorf("%s q%d: route out of range %+v", b.Name, qi, rt)
			}
		}
	}
}

// TestTopologyMatchesPartition: the routes Execute reads off a plan's
// programs must be the partitioner's own dswp.Result.Routes, queue by
// queue, on every chain and parallel shape plan accepts, and no queue may
// come out MPMC — the parallel-stage partitioner realizes its topology as
// SPSC lanes. bench/spine still routes its ncore cells from the partition
// and must see the cycles RunBenchmarkOpts sees.
func TestTopologyMatchesPartition(t *testing.T) {
	shapes := 0
	for _, b := range workloads.All() {
		if b.Loop == nil {
			continue
		}
		for n := 3; n <= design.MaxCores; n++ {
			for _, cfg := range []design.Config{design.HeavyWTConfig().WithCores(n), design.MPMCConfig().WithCores(n)} {
				progs, err := plan(b, cfg)
				if err != nil {
					continue
				}
				var pr *dswp.Result
				if cfg.Parallel {
					pr, err = dswp.PartitionParallel(b.Loop, n-1)
				} else {
					pr, err = dswp.PartitionN(b.Loop, n)
				}
				if err != nil {
					t.Fatalf("%s/%s: plan succeeded but the partitioner failed: %v", b.Name, cfg.Name(), err)
				}
				want := make([]memsys.QueueRoute, len(pr.Routes))
				for q, rt := range pr.Routes {
					want[q] = memsys.QueueRoute{Producer: rt.Producer, Consumer: rt.Consumer}
				}
				routes, mpmc := topology(progs)
				if !reflect.DeepEqual(routes, want) {
					t.Errorf("%s/%s: derived routes %v, partition %v", b.Name, cfg.Name(), routes, want)
				}
				if len(mpmc) != 0 {
					t.Errorf("%s/%s: derived MPMC queues %v", b.Name, cfg.Name(), mpmc)
				}
				shapes++
			}
		}
	}
	if shapes == 0 {
		t.Fatal("no shape planned")
	}
	t.Logf("%d shapes", shapes)
}
