package exp

import (
	"reflect"
	"testing"
	"testing/quick"

	"hfstream/fault"
	"hfstream/internal/design"
	"hfstream/internal/dswp"
	"hfstream/internal/interp"
	"hfstream/internal/ir"
	"hfstream/internal/isa"
	"hfstream/internal/lower"
	"hfstream/internal/mem"
	"hfstream/internal/sim"
)

// genLoop builds a random valid counted loop (a small mix of ALU chains,
// accumulators and carried references over an input array) and returns it
// with its regions.
func genLoop(seed uint32, n int) (*ir.Loop, mem.Region, mem.Region) {
	a := mem.NewAllocator(0x20000, 128)
	in := a.Alloc("in", uint64(n*8))
	out := a.Alloc("out", 1024)

	rng := seed | 1
	next := func(m int) int {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		return int(rng) & 0x7fffffff % m
	}

	l := ir.NewLoop("e2e")
	idx := l.Counter(-1, 1)
	cond := l.Op(isa.CmpLT, ir.V(idx), ir.C(int64(n-1)))
	l.SetExit(cond)
	off := l.Op(isa.ShlI, ir.V(idx), ir.C(3))
	addr := l.Op(isa.AddI, ir.V(off), ir.C(int64(in.Base)))
	v := l.Load(&in, ir.V(addr), 0)

	pool := []*ir.Node{v, off}
	ops := []isa.Op{isa.Add, isa.Sub, isa.Xor, isa.And, isa.Or, isa.Mul}
	k := 3 + next(8)
	for i := 0; i < k; i++ {
		op := ops[next(len(ops))]
		x := pool[next(len(pool))]
		var node *ir.Node
		switch next(3) {
		case 0:
			node = l.Op(op, ir.V(x), ir.V(pool[next(len(pool))]))
		case 1:
			node = l.Acc(op, ir.V(x), int64(next(100)))
		default:
			node = l.Op(op, ir.V(x), ir.Carried(pool[next(len(pool))], int64(next(50))))
		}
		pool = append(pool, node)
	}
	for i := 0; i < 2 && i < len(pool); i++ {
		l.Store(&out, ir.C(int64(out.Base)), int64(i*8), ir.V(pool[len(pool)-1-i]))
	}
	return l, in, out
}

func fillInput(img *mem.Memory, in mem.Region, n int) {
	for i := 0; i < n; i++ {
		img.Write8(in.Base+uint64(i*8), uint64(i*i*2654435761+7))
	}
}

// TestRandomLoopsSimMatchesOracle is the end-to-end correctness property:
// for random loops, the cycle-level machine (every mechanism: coherence,
// OzQ, forwarding, counters, stream cache, SA) finishes with exactly the
// memory image the timing-free interpreter computes — on a software-queue
// design, SYNCOPTI with stream cache, and HEAVYWT.
func TestRandomLoopsSimMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many simulations")
	}
	configs := []design.Config{
		design.ExistingConfig(),
		design.SyncOptiSCQ64Config(),
		design.HeavyWTConfig(),
	}
	f := func(seed uint32) bool {
		const n = 30
		l, in, out := genLoop(seed, n)
		if err := l.Validate(); err != nil {
			return false
		}
		res, err := dswp.Partition(l)
		if err != nil {
			return true // single-SCC loops are legitimately unpartitionable
		}
		single, err := dswp.Single(l)
		if err != nil {
			return false
		}
		oracle := mem.New()
		fillInput(oracle, in, n)
		if err := interp.New(oracle, single).Run(0); err != nil {
			return false
		}

		for _, cfg := range configs {
			progs := res.Threads
			if cfg.SoftwareQueues() {
				var lowered []*isa.Program
				for _, p := range progs {
					lp, err := lower.Lower(p, cfg.Layout())
					if err != nil {
						t.Logf("seed %d/%s: lower: %v", seed, cfg.Name(), err)
						return false
					}
					lowered = append(lowered, lp)
				}
				progs = lowered
			}
			img := mem.New()
			fillInput(img, in, n)
			simCfg := cfg.SimConfig()
			simCfg.Preload = []mem.Region{in}
			var threads []sim.Thread
			for _, p := range progs {
				threads = append(threads, sim.Thread{Prog: p})
			}
			if _, err := sim.Run(simCfg, img, threads); err != nil {
				t.Logf("seed %d/%s: sim: %v", seed, cfg.Name(), err)
				return false
			}
			for o := uint64(0); o < 16; o += 8 {
				if img.Read8(out.Base+o) != oracle.Read8(out.Base+o) {
					t.Logf("seed %d/%s: out+%d sim %#x oracle %#x",
						seed, cfg.Name(), o, img.Read8(out.Base+o), oracle.Read8(out.Base+o))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRandomLoopsFastForwardDifferential is the event-driven scheduler's
// randomized referee: for random loops (with and without random delay
// faults layered on top), the fast-forwarding kernel must produce a
// Result identical field-for-field to the brute-force per-cycle scan
// (DisableFastForward), not just matching outputs. The fixed golden
// snapshots prove this for the paper benchmarks; this extends the proof
// to chaos workloads the goldens never see.
func TestRandomLoopsFastForwardDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many simulations")
	}
	// MEMOPTI and plain SYNCOPTI: software queues and the controller
	// queues are most of the evaluation's simulated time, and most of the
	// memory-token stalls Core.Replay charges without a Tick.
	configs := []design.Config{
		design.ExistingConfig(),
		design.MemOptiConfig(),
		design.SyncOptiConfig(),
		design.SyncOptiSCQ64Config(),
		design.HeavyWTConfig(),
	}
	f := func(seed uint32) bool {
		const n = 30
		l, in, out := genLoop(seed, n)
		if err := l.Validate(); err != nil {
			return false
		}
		res, err := dswp.Partition(l)
		if err != nil {
			return true // single-SCC loops are legitimately unpartitionable
		}
		for _, cfg := range configs {
			progs := res.Threads
			if cfg.SoftwareQueues() {
				var lowered []*isa.Program
				for _, p := range progs {
					lp, err := lower.Lower(p, cfg.Layout())
					if err != nil {
						t.Logf("seed %d/%s: lower: %v", seed, cfg.Name(), err)
						return false
					}
					lowered = append(lowered, lp)
				}
				progs = lowered
			}
			// withFaults=true layers a seeded random-delay plan on top, so
			// the differential also covers the injector's wake scheduling.
			for _, withFaults := range []bool{false, true} {
				run := func(noFF bool) (*sim.Result, *mem.Memory, error) {
					img := mem.New()
					fillInput(img, in, n)
					simCfg := cfg.SimConfig()
					simCfg.Preload = []mem.Region{in}
					simCfg.DisableFastForward = noFF
					if withFaults {
						// Injectors carry per-run state: fresh one per run,
						// same plan, so both modes see identical faults.
						simCfg.Faults = fault.RandomDelay(int64(seed), 3).Injector()
					}
					var threads []sim.Thread
					for _, p := range progs {
						threads = append(threads, sim.Thread{Prog: p})
					}
					r, err := sim.Run(simCfg, img, threads)
					return r, img, err
				}
				ff, ffImg, errFF := run(false)
				scan, scanImg, errScan := run(true)
				if (errFF == nil) != (errScan == nil) {
					t.Logf("seed %d/%s faults=%v: error mismatch: ff=%v scan=%v",
						seed, cfg.Name(), withFaults, errFF, errScan)
					return false
				}
				if errFF != nil {
					if errFF.Error() != errScan.Error() {
						t.Logf("seed %d/%s faults=%v: errors differ:\nff:   %v\nscan: %v",
							seed, cfg.Name(), withFaults, errFF, errScan)
						return false
					}
					continue
				}
				if !reflect.DeepEqual(ff, scan) {
					t.Logf("seed %d/%s faults=%v: results differ: ff cycles=%d scan cycles=%d",
						seed, cfg.Name(), withFaults, ff.Cycles, scan.Cycles)
					return false
				}
				for o := uint64(0); o < 16; o += 8 {
					a := ffImg.Read8(out.Base + o)
					b := scanImg.Read8(out.Base + o)
					if a != b {
						t.Logf("seed %d/%s faults=%v: out+%d ff %#x scan %#x",
							seed, cfg.Name(), withFaults, o, a, b)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
