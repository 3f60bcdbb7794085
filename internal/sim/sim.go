// Package sim assembles the CMP — cores, L2 controllers, shared bus, L3,
// memory, and the selected streaming mechanism — and runs programs to
// completion under a global cycle loop with deadlock detection.
package sim

import (
	"fmt"
	"os"

	"hfstream/fault"
	"hfstream/internal/bus"
	"hfstream/internal/cache"
	"hfstream/internal/core"
	"hfstream/internal/isa"
	"hfstream/internal/mem"
	"hfstream/internal/memsys"
	"hfstream/internal/port"
	"hfstream/internal/queue"
	"hfstream/internal/stats"
	"hfstream/trace"
)

// Config selects the machine to simulate.
type Config struct {
	Mem  memsys.Params
	Core core.Params

	// UseSyncArray routes produce/consume through the HEAVYWT dedicated
	// synchronization array instead of the memory subsystem.
	UseSyncArray bool
	SA           queue.SAParams

	// Preload lists memory regions to warm into the L2s and L3 before
	// measurement begins (the paper evaluates hot loops, not cold
	// caches). The streaming queue region is always warmed into the L3.
	Preload []mem.Region

	// MaxCycles aborts the simulation after this many cycles (0 = 500M).
	MaxCycles uint64
	// WatchdogIdle aborts if no instruction issues for this many
	// consecutive cycles (0 = 100k), catching queue/coherence deadlocks.
	WatchdogIdle uint64
	// SampleInterval collects a throughput sample every N cycles
	// (0 = off); see Result.Samples, TraceReport and CSV.
	SampleInterval uint64

	// Progress, when non-nil, is called synchronously from the cycle loop
	// every ProgressEvery cycles with the current cycle and the cumulative
	// issued-instruction count across all cores. It must not retain its
	// arguments past the call. Fast-forwarding stops exactly on each
	// reporting boundary, so the cadence is identical with and without it.
	Progress func(cycle, issued uint64)
	// ProgressEvery is the Progress reporting period in cycles
	// (0 = every 1M cycles when Progress is set).
	ProgressEvery uint64

	// Cancel aborts the run when closed (typically wired to a
	// context.Done channel by the experiment runner); Run then returns a
	// *CanceledError. The channel is polled every cancelCheckMask+1
	// cycles, so cancellation latency is bounded without a per-cycle
	// select on the hot loop.
	Cancel <-chan struct{}

	// Trace, when non-nil, receives structured issue/retire/queue-op/
	// bus-grant/stall events from every core and the shared bus. The ring
	// is bounded (see trace.NewBuffer), so tracing a long run keeps the
	// most recent events; the same buffer is echoed on Result.Trace.
	// Attaching a trace does not change how the kernel runs: the events
	// are the same bytes with fast-forwarding on and off.
	Trace *trace.Buffer

	// Faults, when non-nil, is the per-run fault injector honoured at the
	// machine's injection points (bus grants, stream forwards, bulk ACKs,
	// OzQ resolutions, synchronization-array deliveries). Injectors carry
	// per-run state: build a fresh one per Run from a fault.Plan. Delay-
	// class faults are latency-only; loss-class faults sever a protocol
	// path and must surface as a typed detection (see package fault).
	Faults *fault.Injector

	// DisableFastForward turns off the idle-cycle fast-forward, forcing
	// the kernel to tick every cycle individually. Every reported number
	// is identical either way (CI proves it by regenerating the golden
	// snapshots in both modes); the knob exists for that proof and for
	// debugging. The HFSTREAM_NO_FASTFORWARD environment variable forces
	// it on process-wide; nothing else selects the per-cycle loop.
	DisableFastForward bool
}

// cancelCheckMask throttles Cancel polling to every 1024th cycle.
const cancelCheckMask = 1023

// Thread is one program plus its initial register file contents.
type Thread struct {
	Prog *isa.Program
	Regs map[isa.Reg]uint64
}

// Result reports a finished simulation.
type Result struct {
	// Cycles is the total execution time: the cycle at which every core
	// had halted and drained.
	Cycles uint64
	// Breakdowns holds each core's stall/issue breakdown; buckets sum to
	// the core's active cycles.
	Breakdowns []stats.Breakdown
	// Issued and IssuedComm are per-core dynamic instruction counts
	// (total, and communication-overhead only).
	Issued     []uint64
	IssuedComm []uint64

	// CoreCycles is each core's active cycle count (it stops counting once
	// halted and drained, so it can undercut Cycles).
	CoreCycles []uint64
	// IssueCycles counts each core's cycles with at least one instruction
	// issued; CoreCycles[i] - IssueCycles[i] is core i's total stall time.
	IssueCycles []uint64
	// Stalls attributes each core's zero-issue cycles to the blocking
	// reason; Stalls[i].Total() == CoreCycles[i] - IssueCycles[i].
	Stalls []core.StallCycles
	// StallRegions attributes the same zero-issue cycles to the machine
	// region responsible (paper Figure 6's delay decomposition).
	StallRegions []stats.Breakdown
	// Produces and Consumes are per-core issued queue-operation counts.
	Produces []uint64
	Consumes []uint64

	// QueueOcc is a per-cycle histogram of the number of stream items in
	// flight end to end (produced but not yet consumed, across all queues
	// and designs).
	QueueOcc stats.Hist
	// SAOcc is the dedicated-store occupancy histogram, recorded at each
	// delivery and consume (HEAVYWT only, nil otherwise).
	SAOcc *stats.Hist

	// Memory system counters.
	BusGrants     uint64
	BusBeats      uint64
	BusArbWait    uint64
	WrFwds        []uint64
	BulkAcks      []uint64
	Probes        []uint64
	SCHits        []uint64
	L2Hits        []uint64
	L2Misses      []uint64
	RecircRetries []uint64
	L3Hits        uint64
	L3Misses      uint64
	MemAccesses   uint64

	// HEAVYWT stats (zero unless UseSyncArray).
	SAFullStalls  uint64
	SAEmptyStalls uint64

	// Samples is the per-interval time series (empty unless
	// Config.SampleInterval was set).
	Samples []Sample

	// Trace echoes Config.Trace (nil when tracing was off), so callers can
	// export the events without keeping the config around.
	Trace *trace.Buffer

	// UnquiescedExit reports that every core halted but the memory
	// fabric never quiesced within the watchdog window (in-flight junk
	// such as an unconsumed forward). The run's outputs are still
	// verified by the harness, but callers should surface the condition
	// rather than swallow it; UnquiescedDetail carries the rendered
	// Diagnosis captured at exit.
	UnquiescedExit   bool
	UnquiescedDetail string
	// Diagnosis is the structured machine snapshot behind
	// UnquiescedDetail (nil on a clean exit).
	Diagnosis *Diagnosis

	// FaultShots lists the injected faults that fired during the run
	// (empty without fault injection).
	FaultShots []string
}

// CommRatio returns core i's dynamic communication-to-application
// instruction ratio (paper Figure 8).
func (r *Result) CommRatio(i int) float64 {
	app := r.Issued[i] - r.IssuedComm[i]
	if app == 0 {
		return 0
	}
	return float64(r.IssuedComm[i]) / float64(app)
}

// DeadlockError reports a simulation that stopped making progress.
type DeadlockError struct {
	Cycle  uint64
	Detail string
	// Diag is the structured machine snapshot taken when the condition
	// was detected (Detail is its rendered form).
	Diag *Diagnosis
}

// Error implements error.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: no progress by cycle %d\n%s", e.Cycle, e.Detail)
}

// ValidationError reports a configuration or program the simulator
// rejected before running a single cycle.
type ValidationError struct {
	Reason string
}

// Error implements error.
func (e *ValidationError) Error() string { return "sim: " + e.Reason }

// CanceledError reports a run aborted through Config.Cancel before
// completion (per-job timeout or whole-experiment cancellation).
type CanceledError struct {
	Cycle uint64
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("sim: canceled at cycle %d", e.Cycle)
}

// validate rejects configurations and programs that would otherwise trip
// internal invariants (nil stream backends, unroutable queues, bad bus
// parameters) with a typed *ValidationError before any cycle runs.
func validate(cfg *Config, threads []Thread) error {
	if len(threads) == 0 {
		return &ValidationError{Reason: "no threads"}
	}
	// Prog.Validate bounds every queue number by the layout's NumQueues, so
	// a slice remembers the ones in use; walking it names the lowest
	// offending queue whatever order the programs used them in.
	usedQs := make([]bool, max(cfg.Mem.Layout.NumQueues, 0))
	anyQ := false
	for i, t := range threads {
		if t.Prog == nil {
			return &ValidationError{Reason: fmt.Sprintf("thread %d: nil program", i)}
		}
		if err := t.Prog.Validate(len(usedQs)); err != nil {
			return &ValidationError{Reason: err.Error()}
		}
		for _, in := range t.Prog.Instrs {
			if in.Op == isa.Produce || in.Op == isa.Consume {
				usedQs[in.Q], anyQ = true, true
			}
		}
	}
	if anyQ && !cfg.UseSyncArray && !cfg.Mem.HWQueues {
		return &ValidationError{Reason: "program uses produce/consume but the design has neither " +
			"hardware queues nor a synchronization array (lower to software queues first)"}
	}
	if cfg.UseSyncArray {
		for q, used := range usedQs {
			if used && q >= cfg.SA.NumQueues {
				return &ValidationError{Reason: fmt.Sprintf(
					"queue %d out of range: synchronization array has %d queues", q, cfg.SA.NumQueues)}
			}
		}
		// A route keyed outside the array is NewSyncArray's to reject.
		for q := 0; q < cfg.SA.NumQueues; q++ {
			r := cfg.SA.MPMC[q]
			for _, side := range [2][]int{r.Producers, r.Consumers} {
				for _, c := range side {
					if c < 0 || c >= len(threads) {
						return &ValidationError{Reason: fmt.Sprintf(
							"queue %d MPMC route references core %d outside [0,%d)", q, c, len(threads))}
					}
				}
			}
		}
	} else if cfg.Mem.HWQueues && len(threads) != 2 {
		// Without the dual-core implicit-peer default every used queue
		// needs an explicit, in-range route.
		for q, used := range usedQs {
			if !used {
				continue
			}
			if q >= len(cfg.Mem.QueueRoutes) {
				return &ValidationError{Reason: fmt.Sprintf(
					"queue %d has no route: %d cores need explicit QueueRoutes", q, len(threads))}
			}
			r := cfg.Mem.QueueRoutes[q]
			if r.Producer < 0 || r.Producer >= len(threads) || r.Consumer < 0 || r.Consumer >= len(threads) {
				return &ValidationError{Reason: fmt.Sprintf(
					"queue %d route (%d -> %d) references cores outside [0,%d)",
					q, r.Producer, r.Consumer, len(threads))}
			}
		}
	}
	return nil
}

// Run executes the given threads on the configured machine and returns
// the result. The memory image carries workload data and receives all
// stores; callers own pre-population and post-run inspection.
func Run(cfg Config, image *mem.Memory, threads []Thread) (*Result, error) {
	if err := validate(&cfg, threads); err != nil {
		return nil, err
	}
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 500_000_000
	}
	watchdog := cfg.WatchdogIdle
	if watchdog == 0 {
		watchdog = 100_000
	}
	progressEvery := cfg.ProgressEvery
	if progressEvery == 0 {
		progressEvery = 1_000_000
	}

	fab, err := memsys.NewFabric(cfg.Mem, image, len(threads))
	if err != nil {
		return nil, &ValidationError{Reason: err.Error()}
	}
	// Every exit recycles the cache arrays: the Result and any Diagnosis
	// hold values only, so nothing refers to the fabric past this call.
	defer fab.Release()
	fab.SetFaults(cfg.Faults)
	lineBytes := uint64(cfg.Mem.L2.LineBytes)
	for _, r := range cfg.Preload {
		base := r.Base &^ (lineBytes - 1)
		if n := int((r.End() - base + lineBytes - 1) / lineBytes); n > 0 {
			fab.PreloadRange(base, n)
		}
	}
	// Warm the queue region into the L3 so the first pass over each queue
	// line is not a compulsory memory miss.
	layout := cfg.Mem.Layout
	if base := layout.SlotAddr(0, 0); layout.RegionEnd() > base {
		n := int((layout.RegionEnd() - base + lineBytes - 1) / lineBytes)
		fab.L3().InsertRange(base, n, cache.Shared)
	}

	var sa *queue.SyncArray
	if cfg.UseSyncArray {
		sa, err = queue.NewSyncArray(cfg.SA)
		if err != nil {
			return nil, &ValidationError{Reason: err.Error()}
		}
		sa.Faults = cfg.Faults
	}

	cores := make([]*core.Core, len(threads))
	for i, t := range threads {
		var strm port.Stream
		switch {
		case cfg.UseSyncArray:
			// Each core gets its own port view: MPMC queues dispatch on
			// (core, ticket); plain queues pass straight through.
			strm = sa.Port(i)
		case cfg.Mem.HWQueues:
			strm = fab.Controller(i)
		}
		c := core.New(i, cfg.Core, t.Prog, fab.Controller(i), strm)
		c.Tracer = cfg.Trace
		c.Tokens = fab.Tokens()
		for r, v := range t.Regs {
			c.SetReg(r, v)
		}
		cores[i] = c
	}
	if sa != nil {
		sa.Tokens = fab.Tokens()
	}
	if cfg.Trace != nil {
		fab.Bus().Trace = func(cycle uint64, k bus.Kind, src int, addr uint64) {
			cfg.Trace.Add(trace.Event{Cycle: cycle, Kind: trace.KindBusGrant,
				Core: src, PC: -1, Q: -1, Op: k.String(), Val: addr})
		}
	}

	// Fast-forwarding is cycle-exact, with or without a trace: a stall run
	// is one coalesced KindStall event and every other event comes from a
	// cycle that is ticked in both modes.
	fastForward := !cfg.DisableFastForward && os.Getenv("HFSTREAM_NO_FASTFORWARD") == ""

	var cycle uint64
	lastIssued := uint64(0)
	lastProgress := uint64(0)
	var samples []Sample
	var queueOcc stats.Hist
	prevIssued := make([]uint64, len(cores))
	coreDone := make([]bool, len(cores))
	var prevGrants uint64
	var unquiesced bool
	var unquiescedDiag *Diagnosis
	for {
		cycle++
		if cycle > maxCycles {
			d := diagnose("cycle budget exhausted", cycle, lastProgress, watchdog, cores, fab, sa, &cfg)
			return nil, &DeadlockError{Cycle: cycle, Detail: d.String(), Diag: d}
		}
		if cfg.Cancel != nil && cycle&cancelCheckMask == 0 {
			select {
			case <-cfg.Cancel:
				return nil, &CanceledError{Cycle: cycle}
			default:
			}
		}
		// Event-driven scheduling: with fast-forward on, components whose
		// cached wake time says they cannot do anything this cycle are not
		// ticked at all. With it off, everything ticks every cycle — the
		// brute-force referee mode the goldens are regenerated under.
		if sa != nil && (!fastForward || sa.WakeAt() <= cycle) {
			sa.Tick(cycle)
		}
		fab.TickDue(cycle, !fastForward)
		allDone := true
		var issuedNow, prodNow, consNow uint64
		for i, c := range cores {
			switch {
			case fastForward && coreDone[i]:
				// A drained core stays drained; its Tick would do nothing.
			case fastForward && c.Replay(cycle):
				// A stall inside the core repeats: charged, not re-ticked.
			default:
				c.Tick(cycle)
				coreDone[i] = c.Done(cycle)
			}
			issuedNow += c.Issued
			prodNow += c.Produces
			consNow += c.Consumes
			if !coreDone[i] {
				allDone = false
			}
		}
		queueOcc.Observe(prodNow - consNow)
		if cfg.SampleInterval > 0 && cycle%cfg.SampleInterval == 0 {
			s := Sample{Cycle: cycle, Issued: make([]uint64, len(cores))}
			for i, c := range cores {
				s.Issued[i] = c.Issued - prevIssued[i]
				prevIssued[i] = c.Issued
			}
			g := fab.Bus().TotalGrants()
			s.BusGrants = g - prevGrants
			prevGrants = g
			samples = append(samples, s)
		}
		if cfg.Progress != nil && cycle%progressEvery == 0 {
			cfg.Progress(cycle, issuedNow)
		}
		if allDone && fab.Quiesced(cycle) && (sa == nil || sa.Drained()) {
			break
		}
		if issuedNow != lastIssued {
			lastIssued = issuedNow
			lastProgress = cycle
			continue
		}
		if cycle-lastProgress > watchdog {
			if allDone {
				// Cores finished but the fabric never quiesced: in-flight
				// junk (e.g. an unconsumed forward). The outputs are
				// complete, so finish the run — but record the condition
				// so callers can surface it instead of silently absorbing
				// a fabric bug.
				unquiesced = true
				unquiescedDiag = diagnose("cores done but fabric never quiesced",
					cycle, lastProgress, watchdog, cores, fab, sa, &cfg)
				break
			}
			d := diagnose("watchdog", cycle, lastProgress, watchdog, cores, fab, sa, &cfg)
			return nil, &DeadlockError{Cycle: cycle, Detail: d.String(), Diag: d}
		}
		if !fastForward {
			continue
		}
		// Idle-cycle fast-forward: no instruction issued anywhere this
		// cycle, so until the earliest next-wake event (a scheduled bus or
		// controller completion, an operand/token ready cycle, a dormant
		// consume's probe timeout, an interconnect delivery) every coming
		// cycle replays this one exactly. Jump there in one step, charging
		// each skipped cycle to the same stall buckets and counters the
		// per-cycle loop would have. The jump is capped so the watchdog,
		// cycle budget, and sampling boundaries fire on exactly the cycle
		// they would without fast-forwarding.
		wake := lastProgress + watchdog + 1
		if m := maxCycles + 1; m < wake {
			wake = m
		}
		if w := fab.NextWake(cycle); w < wake {
			wake = w
		}
		if sa != nil {
			if w := sa.NextWake(cycle); w < wake {
				wake = w
			}
		}
		for i, c := range cores {
			if coreDone[i] {
				continue
			}
			if w := c.NextWake(cycle); w < wake {
				wake = w
			}
		}
		if cfg.SampleInterval > 0 {
			if b := cycle - cycle%cfg.SampleInterval + cfg.SampleInterval; b < wake {
				wake = b
			}
		}
		if cfg.Progress != nil {
			if b := cycle - cycle%progressEvery + progressEvery; b < wake {
				wake = b
			}
		}
		if wake <= cycle+1 {
			continue
		}
		n := wake - cycle - 1
		for i, c := range cores {
			if coreDone[i] {
				continue
			}
			c.FastForward(n)
			if sa != nil {
				// The per-cycle loop would have retried the blocked queue
				// operation each cycle, bumping the SA's stall counter on
				// every failed attempt.
				switch c.LastStall {
				case core.StallQueueFull:
					sa.FullStalls += n
				case core.StallQueueEmpty:
					sa.EmptyStalls += n
				}
			}
		}
		queueOcc.ObserveN(prodNow-consNow, n)
		cycle += n
		if cfg.Cancel != nil {
			select {
			case <-cfg.Cancel:
				return nil, &CanceledError{Cycle: cycle}
			default:
			}
		}
	}

	res := &Result{
		Cycles:         cycle,
		Samples:        samples,
		Trace:          cfg.Trace,
		QueueOcc:       queueOcc,
		UnquiescedExit: unquiesced,
		Diagnosis:      unquiescedDiag,
		FaultShots:     cfg.Faults.ShotStrings(),
	}
	if unquiescedDiag != nil {
		res.UnquiescedDetail = unquiescedDiag.String()
	}
	for i, c := range cores {
		c.FinishTrace(cycle + 1)
		res.Breakdowns = append(res.Breakdowns, c.Breakdown)
		res.Issued = append(res.Issued, c.Issued)
		res.IssuedComm = append(res.IssuedComm, c.IssuedComm)
		res.CoreCycles = append(res.CoreCycles, c.Cycles)
		res.IssueCycles = append(res.IssueCycles, c.IssueCycles)
		res.Stalls = append(res.Stalls, c.Stalls)
		res.StallRegions = append(res.StallRegions, c.StallRegions)
		res.Produces = append(res.Produces, c.Produces)
		res.Consumes = append(res.Consumes, c.Consumes)
		ctrl := fab.Controller(i)
		res.WrFwds = append(res.WrFwds, ctrl.WrFwdsSent)
		res.BulkAcks = append(res.BulkAcks, ctrl.BulkAcksSent)
		res.Probes = append(res.Probes, ctrl.ProbesSent)
		res.SCHits = append(res.SCHits, ctrl.StreamCacheHits())
		res.L2Hits = append(res.L2Hits, ctrl.L2().Hits)
		res.L2Misses = append(res.L2Misses, ctrl.L2().Misses)
		res.RecircRetries = append(res.RecircRetries, ctrl.RecircRetries)
	}
	res.BusGrants = fab.Bus().TotalGrants()
	res.BusBeats = fab.Bus().BeatsCarried
	res.BusArbWait = fab.Bus().ArbWait
	res.L3Hits = fab.L3Hits
	res.L3Misses = fab.L3Misses
	res.MemAccesses = fab.MemAccesses
	if sa != nil {
		res.SAFullStalls = sa.FullStalls
		res.SAEmptyStalls = sa.EmptyStalls
		occ := sa.OccHist
		res.SAOcc = &occ
	}
	return res, nil
}
