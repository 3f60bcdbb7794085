package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"hfstream"
	"hfstream/internal/asm"
	"hfstream/internal/bus"
	"hfstream/internal/cache"
	"hfstream/internal/core"
	"hfstream/internal/design"
	"hfstream/internal/dswp"
	"hfstream/internal/evq"
	"hfstream/internal/exp"
	"hfstream/internal/interp"
	"hfstream/internal/mem"
	"hfstream/internal/memsys"
	"hfstream/internal/port"
	"hfstream/internal/queue"
	"hfstream/internal/ring"
	"hfstream/internal/workloads"
	"hfstream/serve"
	"hfstream/serve/cluster"
	"hfstream/trace"
)

// Micro-costs: standalone drivers on canned inputs, one per operation a
// layer performs millions of times. Each is timed in batches interleaved
// with all the others, so a slow stretch of the machine touches one batch
// of each and not every batch of one; the figure is the median batch.

// micro is one driver: prep builds its state once and returns the batch
// function, which runs the operation n times and returns how many
// elementary operations that was (n, or n times a per-call count). A
// driver that keeps a goroutine between batches (parked, never spinning)
// registers a function that stops it and waits for it; runMicros calls
// those after the last batch, so nothing of a driver outlives the micros.
type micro struct {
	name string
	n    int
	prep func(atEnd cleanup) func(n int) int
}

type cleanup func(stop func())

var microSink uint64 // keeps results alive so the calls are not removed

// idleStream never accepts an operation: a core consuming from it stalls.
type idleStream struct{}

func (idleStream) Produce(uint64, int, uint64) (*port.Token, bool) { return nil, false }
func (idleStream) Consume(uint64, int) (*port.Token, bool)         { return nil, false }

// idleMem accepts nothing; the canned programs issue no memory operation.
type idleMem struct{}

func (idleMem) CanAccept() bool                          { return false }
func (idleMem) Load(uint64, uint64) *port.Token          { panic("probe program issues no load") }
func (idleMem) Store(uint64, uint64, uint64) *port.Token { panic("probe program issues no store") }
func (idleMem) Fence(uint64) *port.Token                 { panic("probe program issues no fence") }

// busOwner counts completed transactions.
type busOwner struct{ done int }

func (o *busOwner) ReqNote(*bus.Req, int)    {}
func (o *busOwner) ReqDone(*bus.Req, uint64) { o.done++ }

func mustf(ok bool, format string, args ...any) {
	if !ok {
		panic(fmt.Sprintf("probe: "+format, args...))
	}
}

// saProbe drives a synchronization array: every step one produce per
// producer port and, two cycles on, one consume per consumer port.
func saProbe(p queue.SAParams, producers, consumers []int) func(n int) int {
	sa, err := queue.NewSyncArray(p)
	mustf(err == nil, "sync array: %v", err)
	sa.Tokens = port.NewTokenPool()
	var prod, cons []*queue.SAPort
	for _, c := range producers {
		prod = append(prod, sa.Port(c))
	}
	for _, c := range consumers {
		cons = append(cons, sa.Port(c))
	}
	cycle := uint64(0)
	return func(n int) int {
		for i := 0; i < n; i++ {
			cycle += 8
			for _, pp := range prod {
				tok, ok := pp.Produce(cycle, 0, uint64(i))
				mustf(ok, "produce refused at cycle %d", cycle)
				sa.Tokens.Put(tok)
			}
			for c := cycle + 1; c <= cycle+4; c++ {
				sa.Tick(c)
			}
			for _, cp := range cons {
				tok, ok := cp.Consume(cycle+4, 0)
				mustf(ok, "consume refused at cycle %d", cycle+4)
				sa.Tokens.Put(tok)
			}
			for c := cycle + 5; c <= cycle+7; c++ {
				sa.Tick(c)
			}
		}
		return n * len(prod)
	}
}

var micros = []micro{
	{"evq.push_pop_ns", 20000, func(cleanup) func(int) int {
		var q evq.Queue[int]
		x := uint64(88172645463325252)
		for i := 0; i < 64; i++ {
			q.Push(uint64(i), i)
		}
		at := uint64(64)
		return func(n int) int {
			for i := 0; i < n; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				at++
				q.Push(at+x&63, i)
				v, ok := q.PopDue(^uint64(0) >> 1)
				mustf(ok, "evq empty")
				microSink += uint64(v)
			}
			return n
		}
	}},
	{"core.tick_ns", 20000, func(cleanup) func(int) int {
		prog := asm.MustParse("tick", `
			movi r1, 1
		loop:
			addi r2, r2, 1
			add  r3, r3, r2
			xor  r4, r4, r3
			shli r5, r2, 3
			and  r6, r5, r3
			bnez r1, loop
			halt
		`)
		c := core.New(0, core.DefaultParams(), prog, idleMem{}, idleStream{})
		cycle := uint64(0)
		return func(n int) int {
			for i := 0; i < n; i++ {
				cycle++
				c.Tick(cycle)
			}
			mustf(!c.Halted(), "tick probe halted")
			return n
		}
	}},
	{"core.tick_stalled_ns", 20000, func(cleanup) func(int) int {
		prog := asm.MustParse("stalled", `
			consume r1, q0
			halt
		`)
		c := core.New(0, core.DefaultParams(), prog, idleMem{}, idleStream{})
		cycle := uint64(0)
		return func(n int) int {
			for i := 0; i < n; i++ {
				cycle++
				c.Tick(cycle)
			}
			mustf(!c.Halted(), "stalled probe made progress")
			return n
		}
	}},
	{"bus.submit_grant_ns", 10000, func(cleanup) func(int) int {
		own := &busOwner{}
		b := bus.New(bus.DefaultParams(), 2, func(*bus.Req, uint64) (int, int) { return 0, 0 })
		reqs := [2]bus.Req{}
		cycle := uint64(0)
		return func(n int) int {
			before := own.done
			for i := 0; i < n; i++ {
				cycle += 8
				r := &reqs[i&1]
				*r = bus.Req{Kind: bus.Upgrade, Src: i & 1, Addr: uint64(i) << 7, Owner: own}
				b.Submit(cycle, r)
				for c := cycle + 1; c <= cycle+4; c++ {
					b.Tick(c)
				}
			}
			mustf(own.done-before == n, "bus completed %d of %d", own.done-before, n)
			return n
		}
	}},
	{"cache.lookup_hit_ns", 50000, func(cleanup) func(int) int {
		p := cache.Params{SizeBytes: 256 << 10, Ways: 8, LineBytes: 128, Latency: 5}
		c := cache.New(p)
		const lines = 1024
		c.InsertRange(0, lines, cache.Shared)
		i := uint64(0)
		return func(n int) int {
			for k := 0; k < n; k++ {
				i = (i + 37) % lines
				mustf(c.Lookup(i*128) != nil, "lookup missed line %d", i)
			}
			return n
		}
	}},
	{"cache.insert_evict_ns", 20000, func(cleanup) func(int) int {
		p := cache.Params{SizeBytes: 256 << 10, Ways: 8, LineBytes: 128, Latency: 5}
		c := cache.New(p)
		c.InsertRange(0, p.SizeBytes/p.LineBytes, cache.Modified)
		addr := uint64(p.SizeBytes)
		return func(n int) int {
			evictions := 0
			for k := 0; k < n; k++ {
				if _, ev := c.Insert(addr, cache.Modified); ev {
					evictions++
				}
				addr += 128
			}
			mustf(evictions == n, "%d of %d inserts evicted", evictions, n)
			return n
		}
	}},
	{"cache.insert_range_ns_per_line", 100, func(cleanup) func(int) int {
		p := cache.Params{SizeBytes: 1536 << 10, Ways: 12, LineBytes: 128, Latency: 12}
		c := cache.New(p)
		base := uint64(0)
		return func(n int) int {
			for k := 0; k < n; k++ {
				c.InsertRange(base, 256, cache.Shared)
				base += 256 * 128
			}
			return n * 256
		}
	}},
	{"queue.sa_spsc_ns", 5000, func(cleanup) func(int) int {
		return saProbe(queue.DefaultSAParams(64, 32), []int{0}, []int{1})
	}},
	{"queue.sa_mpmc_ns", 2500, func(cleanup) func(int) int {
		p := queue.DefaultSAParams(64, 32)
		p.MPMC = map[int]queue.MPMCRoute{0: {Producers: []int{0, 1}, Consumers: []int{2, 3}}}
		return saProbe(p, []int{0, 1}, []int{2, 3})
	}},
	{"memsys.fabric_tick_idle_ns", 20000, func(cleanup) func(int) int {
		fab, err := memsys.NewFabric(memsys.DefaultParams(design.HeavyWTConfig().Layout()), mem.New(), 2)
		mustf(err == nil, "fabric: %v", err)
		cycle := uint64(0)
		return func(n int) int {
			for i := 0; i < n; i++ {
				cycle++
				fab.Tick(cycle)
			}
			return n
		}
	}},
	{"trace.add_ns", 50000, func(cleanup) func(int) int {
		buf := trace.NewBuffer(1 << 12)
		return func(n int) int {
			for i := 0; i < n; i++ {
				buf.Add(trace.Event{Cycle: uint64(i), Kind: trace.KindIssue, Core: i & 1, PC: i & 255, Q: -1, Op: "add"})
			}
			return n
		}
	}},
	{"ring.spsc_push_pop_ns", 50000, func(cleanup) func(int) int {
		r := ring.New[int](64)
		return func(n int) int {
			for i := 0; i < n; i++ {
				mustf(r.TryPush(i), "ring full")
				v, ok := r.TryPop()
				mustf(ok, "ring empty")
				microSink += uint64(v)
			}
			return n
		}
	}},
	// The three hand-off drivers below are ping-pongs: one item in flight,
	// handed to another goroutine and acknowledged, which is how the serving
	// path uses the pool (submit a job, wait for its result). A flooding
	// producer would measure the scheduler's mood instead.
	{"ring.spsc_handoff_ns", 2000, func(cleanup) func(int) int {
		there, back := ring.New[int](64), ring.New[int](64)
		return func(n int) int {
			// The echo goroutine busy-waits, so it lives for one batch only:
			// between batches it would hold a P beside the other drivers.
			var stop atomic.Bool
			stopped := make(chan struct{})
			go func() {
				defer close(stopped)
				for !stop.Load() {
					if v, ok := there.TryPop(); ok {
						back.TryPush(v)
					} else {
						runtime.Gosched()
					}
				}
			}()
			for i := 0; i < n; i++ {
				mustf(there.TryPush(i), "ring full")
				for {
					if _, ok := back.TryPop(); ok {
						break
					}
					runtime.Gosched()
				}
			}
			stop.Store(true)
			<-stopped
			return n
		}
	}},
	{"exp.pool_submit_ns", 2000, func(atEnd cleanup) func(int) int {
		pool := exp.NewPool(1, 64)
		atEnd(func() {
			pool.Close()
			mustf(pool.Wait(context.Background()) == nil, "pool did not drain")
		})
		done := make(chan struct{}, 1)
		task := func() { done <- struct{}{} }
		return func(n int) int {
			for i := 0; i < n; i++ {
				mustf(pool.TrySubmit(task) == nil, "pool refused a task")
				<-done
			}
			return n
		}
	}},
	{"exp.pool_chan_ref_ns", 2000, func(atEnd cleanup) func(int) int {
		// The reference exp.Pool's rings are weighed against: the same
		// bounded, non-blocking submission to one worker over a buffered
		// channel. The buffer is the pool's queue depth above.
		tasks := make(chan func(), 64)
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			for t := range tasks {
				t()
			}
		}()
		atEnd(func() { close(tasks); <-stopped })
		done := make(chan struct{}, 1)
		task := func() { done <- struct{}{} }
		return func(n int) int {
			for i := 0; i < n; i++ {
				select {
				case tasks <- task:
				default:
					mustf(false, "reference queue refused a task")
				}
				<-done
			}
			return n
		}
	}},
	{"mem.read8_ns", 50000, func(cleanup) func(int) int {
		m := mem.New()
		for a := uint64(0); a < 64<<10; a += 8 {
			m.Write8(0x10_0000+a, a)
		}
		a := uint64(0)
		return func(n int) int {
			for i := 0; i < n; i++ {
				a = (a + 8*37) & (64<<10 - 1)
				microSink += m.Read8(0x10_0000 + a)
			}
			return n
		}
	}},
	{"mem.write8_ns", 50000, func(cleanup) func(int) int {
		m := mem.New()
		a := uint64(0)
		return func(n int) int {
			for i := 0; i < n; i++ {
				a = (a + 8*37) & (64<<10 - 1)
				m.Write8(0x10_0000+a, uint64(i))
			}
			return n
		}
	}},
	{"hfstream.spec_key_ns", 500, func(cleanup) func(int) int {
		spec := hfstream.Spec{Bench: "fft2", Design: "SYNCOPTI_SC+Q64"}
		return func(n int) int {
			for i := 0; i < n; i++ {
				k, err := spec.Key()
				mustf(err == nil, "spec key: %v", err)
				microSink += uint64(len(k))
			}
			return n
		}
	}},
	{"hfstream.design_by_name_ns", 2000, func(cleanup) func(int) int {
		return func(n int) int {
			for i := 0; i < n; i++ {
				d, err := hfstream.DesignByName("SYNCOPTI_SC+Q64_4CORE")
				mustf(err == nil, "design by name: %v", err)
				microSink += uint64(d.Cores())
			}
			return n
		}
	}},
	{"cluster.ring_owners_ns", 5000, func(cleanup) func(int) int {
		r, err := cluster.NewRing([]string{"r0", "r1", "r2"}, 0)
		mustf(err == nil, "ring: %v", err)
		key, err := hfstream.Spec{Bench: "wc", Design: "HEAVYWT"}.Key()
		mustf(err == nil, "spec key: %v", err)
		return func(n int) int {
			for i := 0; i < n; i++ {
				microSink += uint64(len(r.Owners(key, cluster.DefaultReplication)))
			}
			return n
		}
	}},
	{"serve.digest_ns_per_kb", 200, func(cleanup) func(int) int {
		body := make([]byte, 4<<10)
		for i := range body {
			body[i] = byte(i * 31)
		}
		return func(n int) int {
			for i := 0; i < n; i++ {
				microSink += uint64(len(serve.Digest(body)))
			}
			return n * len(body) >> 10
		}
	}},
}

// microBatches is how many interleaved batches each micro-cost is the
// median of.
const microBatches = 9

// runMicros returns each micro-cost in ns per operation and its mallocs
// per operation.
func runMicros(batches int) (ns, allocs map[string]float64) {
	runs := make([]func(int) int, len(micros))
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	for i, m := range micros {
		runs[i] = m.prep(func(stop func()) { stops = append(stops, stop) })
		runs[i](m.n / 10) // first touch: page faults and growth stay out
	}
	nsS := make([][]float64, len(micros))
	alS := make([][]float64, len(micros))
	var ms0, ms1 runtime.MemStats
	for b := 0; b < batches; b++ {
		for i, m := range micros {
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			ops := runs[i](m.n)
			d := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			nsS[i] = append(nsS[i], float64(d)/float64(ops))
			alS[i] = append(alS[i], float64(ms1.Mallocs-ms0.Mallocs)/float64(ops))
		}
	}
	ns, allocs = make(map[string]float64), make(map[string]float64)
	for i, m := range micros {
		ns[m.name], allocs[m.name] = median(nsS[i]), median(alS[i])
	}
	return ns, allocs
}

// runProbes runs the standalone drivers of a traced run: the micro-costs
// everywhere (they take under a second), and the drivers that take
// seconds only in the traced run of the workload they explain.
func runProbes(ctx context.Context, rc runConfig, yt *ytClock, res *runResult) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	batches := microBatches
	if rc.Short {
		batches = 3
	}
	ns, allocs := runMicros(batches)
	for name, v := range ns {
		res.Layers[name] = v
	}
	res.MicroAllocs = allocs

	inYT := func(f func() error) (float64, error) {
		t0 := time.Now()
		err := f()
		d := float64(time.Since(t0))
		return d / yt.observe(d), err
	}
	switch rc.Workload {
	case "matrix2":
		return matrixProbes(ctx, rc, inYT, res)
	case "ncore":
		return ladderProbe(rc, inYT, res)
	case "serve_hot":
		return loopbackProbe(ctx, rc, yt, res)
	case "serve_mix":
		return sweepProbes(ctx, rc, yt, res)
	}
	return nil
}

// matrixProbes are the library-level drivers: the oracle's cold cost, the
// runner's parallel efficiency and what Spec.RunCtx adds to a kernel op.
func matrixProbes(ctx context.Context, rc runConfig, inYT func(func() error) (float64, error), res *runResult) error {
	cells := matrixCells()
	if rc.Short {
		cells = cells[:7]
	}

	var cold []float64
	for _, b := range hfstream.Benchmarks() {
		v, err := inYT(func() error { return oracleCold(b.Name()) })
		if err != nil {
			return err
		}
		cold = append(cold, v)
	}
	res.Layers["interp.oracle_cold_yt"] = median(cold)

	var benches []string
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.Bench] {
			seen[c.Bench] = true
			benches = append(benches, c.Bench)
		}
	}
	defer exp.SetParallelism(exp.Parallelism())
	var wall [2]float64
	for i, j := range []int{1, 2} {
		exp.SetParallelism(j)
		v, err := inYT(func() error {
			_, err := exp.CollectMetrics(ctx, benches, design.StandardConfigs())
			return err
		})
		if err != nil {
			return err
		}
		wall[i] = v
	}
	res.Layers["exp.runner_speedup_j2"] = wall[0] / wall[1]
	res.Layers["exp.runner_eff_j2"] = wall[0] / wall[1] / 2

	var runctx, over []float64
	for _, c := range cells {
		c := c
		lib, err := inYT(func() error {
			_, err := c.Spec.RunCtx(ctx, hfstream.WithMetrics(io.Discard))
			return err
		})
		if err != nil {
			return err
		}
		direct, err := inYT(func() error {
			_, err := runDirect(ctx, c, exp.RunOpts{})
			return err
		})
		if err != nil {
			return err
		}
		runctx = append(runctx, lib)
		over = append(over, lib-direct)
	}
	res.Layers["hfstream.runctx_yt"] = median(runctx)
	res.Layers["hfstream.runctx_overhead_yt"] = median(over)
	return nil
}

// ladderProbe times one dswp.PartitionN(fft2, k) call per depth. Eight
// stages take seconds, too slow to be a timed op, so it is recorded here.
func ladderProbe(rc runConfig, inYT func(func() error) (float64, error), res *runResult) error {
	depths := []int{2, 4, 6, 8}
	if rc.Short {
		depths = depths[:2]
	}
	for _, k := range depths {
		v, err := inYT(func() error { return partitionFFT2(k) })
		if err != nil {
			return err
		}
		res.Layers[fmt.Sprintf("dswp.partition_fft2_k%d_yt", k)] = v
	}
	return nil
}

func partitionFFT2(k int) error {
	b, err := workloads.ByName("fft2")
	if err != nil {
		return err
	}
	_, err = dswp.PartitionN(b.Loop, k)
	return err
}

// oracleCold is what exp.Expected does the first time a process asks for
// a benchmark's oracle image: a fresh instance run on the interpreter.
func oracleCold(name string) error {
	b, err := workloads.ByName(name)
	if err != nil {
		return err
	}
	prog, err := b.Single()
	if err != nil {
		return err
	}
	img := mem.New()
	b.Setup(img)
	return interp.New(img, prog).Run(0)
}
