package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// processStart is taken as early as the runtime allows; setup_s runs from
// here to the first timed op.
var processStart = time.Now()

// runConfig is what one measuring process is asked to do.
type runConfig struct {
	Workload string
	Seed     int64
	Part     int     // which of the parent's measuring processes this is
	Seconds  float64 // how long the timed rounds run
	Trace    bool
	Short    bool   // smoke sizing, set only by the tests: one round, small op lists, few probe batches
	OutDir   string // where a traced run writes its trace_event file
}

// opRec is what the harness keeps of one executed op.
type opRec struct {
	Lat    float64 // ns
	YT     float64 // length of one yt at the op, ns
	Cell   int32
	Class  uint8
	Traced bool
	OpID   int32  // the tracer's op identifier, -1 when untraced
	Cycles uint64 // simulated cycles, 0 when the op simulated nothing
}

func (o opRec) latYT() float64 { return o.Lat / o.YT }

// lane is one closed-loop client: a goroutine that sends its next op when
// the previous one has returned, with its own yardstick, tracer and
// records.
type lane struct {
	id        int
	yt        *ytClock
	tr        *tracer
	ops       []opRec
	attempted int
	failed    int
	failures  []string
}

// newLane gives the lane a tracer only in a traced run, so that an
// untraced run's memory holds no span buffer.
func newLane(id int, origin time.Time, traced bool) *lane {
	l := &lane{id: id, yt: newYTClock()}
	if traced {
		l.tr = newTracer(origin, id)
	}
	return l
}

// exec times one op. f gets the lane's tracer in a traced round and nil
// otherwise, and reports the op's class, the cycles it simulated and
// whether its output was correct.
func (l *lane) exec(traced bool, cell int, what func() string, f func(tr *tracer) (class uint8, cycles uint64, err error)) {
	var tr *tracer
	if traced {
		tr = l.tr
	}
	id := tr.beginOp("op")
	t0 := time.Now()
	class, cycles, err := f(tr)
	lat := float64(time.Since(t0))
	tr.end()
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.failures) < 8 {
			l.failures = append(l.failures, fmt.Sprintf("%s: %v", what(), err))
		}
	}
	l.ops = append(l.ops, opRec{Lat: lat, YT: l.yt.observe(lat), Cell: int32(cell),
		Class: class, Traced: traced, OpID: id, Cycles: cycles})
}

// eachLane runs f once per lane, each on its own goroutine, and waits.
func eachLane(lanes []*lane, f func(l *lane)) {
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			f(l)
		}(l)
	}
	wg.Wait()
}

// workload is one of the six traffic shapes.
type workload interface {
	// lanes is the number of closed-loop clients.
	lanes() int
	// setup builds everything the first timed op needs: cell list, oracle
	// warm-up, reference results, servers, one untimed warm pass. It
	// reports each reference op to clock, which so samples the yardstick
	// all through the set-up.
	setup(ctx context.Context, rc runConfig, clock *ytClock, res *runResult) error
	// round runs round r on every lane and returns when all are done.
	// Every round has the same number of ops per lane and, but for the
	// seeded order, the same composition.
	round(ctx context.Context, r int, traced bool, lanes []*lane) error
	// finish checks what can only be checked at the end (class shares),
	// fills the workload's per-layer metrics and releases its servers.
	finish(ctx context.Context, lanes []*lane, res *runResult) error
}

// runResult is what a measuring process hands back.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	SetupS    float64  `json:"setup_s"`  // process start to first timed op, wall seconds
	SetupYT   float64  `json:"setup_yt"` // the same in yt, by the yardstick samples taken during set-up
	WallS     float64  `json:"wall_s"`
	Rounds    int      `json:"rounds"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Notes     []string `json:"notes,omitempty"`
	Cells     []string `json:"cells,omitempty"` // the kept cell list (ncore)

	// Per lane: every op's latency in yt, and per round the throughput
	// (ops/yt) and simulator speed (cycles/yt) of that lane.
	LatYT    [][]float64 `json:"lat_yt"`
	SegTput  [][]float64 `json:"seg_tput"`
	SegSpeed [][]float64 `json:"seg_speed"`

	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	HeapLiveMB float64 `json:"heap_live_mb"` // reachable heap after a collection at the end of round heapLiveRound
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	GCCycles   uint32  `json:"gc_cycles"`
	GCPauseMs  float64 `json:"gc_pause_ms"`

	YtickUs     float64 `json:"ytick_us"`
	YtickIQRPct float64 `json:"ytick_iqr_pct"`

	// Traced runs only.
	Layers      map[string]float64 `json:"layers,omitempty"`
	MicroAllocs map[string]float64 `json:"micro_allocs,omitempty"` // allocs/op of the _ns probes
	ModelDigest string             `json:"model_digest,omitempty"`
	PaperErrPct float64            `json:"paper_err_pct,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "matrix2", "ncore", "referee":
		return &kernelWorkload{name: name}, nil
	case "serve_hot":
		return &hotWorkload{}, nil
	case "serve_mix":
		return &mixWorkload{}, nil
	case "cluster3":
		return &clusterWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (see -list)", name)
}

// minRounds is the fewest timed rounds a run makes whatever its budget:
// a traced run needs a traced and an untraced one to compare.
const minRounds = 2

// heapLiveRound is the round after which the reachable heap is read. Every
// run gets this far and holds the same number of op records there, so the
// harness's own share of the figure is the same on every run.
const heapLiveRound = minRounds - 1

// measure is a measuring process: set up, run rounds until the budget is
// spent, reduce.
func measure(ctx context.Context, rc runConfig) (*runResult, error) {
	w, err := newWorkload(rc.Workload)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: rc.Workload, Seed: rc.Seed, Traced: rc.Trace, Layers: map[string]float64{}}
	clock := newYTClock()
	if err := w.setup(ctx, rc, clock, res); err != nil {
		return nil, fmt.Errorf("%s setup: %w", rc.Workload, err)
	}
	origin := time.Now()
	lanes := make([]*lane, w.lanes())
	for i := range lanes {
		lanes[i] = newLane(i, origin, rc.Trace)
	}
	setup := time.Since(processStart)
	res.SetupS = setup.Seconds()
	res.SetupYT = float64(setup) / median(clock.samples)

	var gc0, ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	budget := time.Duration(rc.Seconds * float64(time.Second))
	var longest time.Duration
	for r := 0; ; r++ {
		if r >= minRounds && (rc.Short || time.Since(origin)+longest > budget) {
			break
		}
		traced := rc.Trace && r%2 == 0
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		if err := w.round(ctx, r, traced, lanes); err != nil {
			return nil, fmt.Errorf("%s round %d: %w", rc.Workload, r, err)
		}
		if d := time.Since(t0); d > longest {
			longest = d
		}
		runtime.ReadMemStats(&ms1)
		res.Mallocs += ms1.Mallocs - ms0.Mallocs
		res.AllocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		res.Rounds++
		if r == heapLiveRound {
			// What the runtime holds from the OS moves with the timing of
			// its collector and scavenger by tens of percent; what is still
			// reachable after a collection does not.
			runtime.GC()
			runtime.ReadMemStats(&ms1)
			res.HeapLiveMB = float64(ms1.HeapAlloc) / (1 << 20)
		}
	}
	res.WallS = time.Since(origin).Seconds()
	res.GCCycles = ms1.NumGC - gc0.NumGC
	res.GCPauseMs = float64(ms1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
	// The peak is read here, before the harness reduces its records.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err := w.finish(ctx, lanes, res); err != nil {
		return nil, fmt.Errorf("%s finish: %w", rc.Workload, err)
	}
	reduce(rc, lanes, res)
	if rc.Trace {
		if err := runProbes(ctx, rc, lanes[0].yt, res); err != nil {
			return nil, fmt.Errorf("%s probes: %w", rc.Workload, err)
		}
		tracers := make([]*tracer, len(lanes))
		for i, l := range lanes {
			tracers[i] = l.tr
		}
		path, err := writeChromeTrace(rc.OutDir, rc.Workload, tracers)
		if err != nil {
			return nil, err
		}
		res.TraceFile = path
		for _, m := range perLayer {
			if _, ok := res.Layers[m.Name]; !ok {
				res.Layers[m.Name] = 0
			}
		}
	}
	return res, nil
}

// reduce turns the lanes' records into the result's samples and the
// harness's own per-layer metrics. Every round gives a lane the same
// number of ops, so a lane's segments are its rounds.
func reduce(rc runConfig, lanes []*lane, res *runResult) {
	// yts are the kernel's raw samples; ests the running estimates the ops
	// were divided by, whose spread says how far the ruler itself moved.
	var yts, ests, all []float64
	var tracedTput, plainTput float64
	for _, l := range lanes {
		res.Attempted += l.attempted
		res.Failed += l.failed
		res.Failures = append(res.Failures, l.failures...)
		if l.yt.bad {
			res.Failed++
			res.Failures = append(res.Failures, "yardstick returned a wrong checksum")
		}
		yts = append(yts, l.yt.samples...)
		n := len(l.ops)
		lat, one, cycles := make([]float64, n), make([]float64, n), make([]float64, n)
		for j, o := range l.ops {
			lat[j], one[j], cycles[j] = o.latYT(), 1, float64(o.Cycles)
			ests = append(ests, o.YT)
		}
		all = append(all, lat...)
		per := n / res.Rounds
		tput := segmentRates(one, lat, per)
		res.LatYT = append(res.LatYT, lat)
		res.SegTput = append(res.SegTput, tput)
		res.SegSpeed = append(res.SegSpeed, segmentRates(cycles, lat, per))
		// In a traced run the even rounds are traced.
		var tTput, pTput []float64
		for r, v := range tput {
			if rc.Trace && r%2 == 0 {
				tTput = append(tTput, v)
			} else {
				pTput = append(pTput, v)
			}
		}
		tracedTput += median(tTput)
		plainTput += median(pTput)
	}
	res.YtickUs = median(yts) / 1e3
	res.YtickIQRPct = 100 * iqrShare(ests)
	if !rc.Trace {
		return
	}
	asc := sorted(all)
	pct, val := ptail(asc)
	h := res.Layers
	h["harness.ytick_us"] = res.YtickUs
	h["harness.ytick_iqr_pct"] = res.YtickIQRPct
	h["harness.wall_s"] = res.WallS
	h["harness.ops"] = float64(len(all))
	h["harness.op_ptail_yt"] = val
	h["harness.op_ptail_pct"] = pct
	h["harness.gc_cycles"] = float64(res.GCCycles)
	h["harness.gc_pause_ms"] = res.GCPauseMs
	h["harness.peak_rss_mb"] = res.PeakRSSMB
	if plainTput > 0 {
		h["harness.trace_overhead_pct"] = 100 * (1 - tracedTput/plainTput)
	}
}

// fatal prints to standard error and exits non-zero without a result.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spine: "+format+"\n", args...)
	os.Exit(1)
}
