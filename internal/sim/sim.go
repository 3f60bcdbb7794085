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
	// Cancel aborts the run when closed (typically wired to a
	// context.Done channel by the experiment runner); Run then returns a
	// *CanceledError. Cancel is polled at the first gate at or past each
	// multiple of 1024 cycles, so after a jump it is polled on the
	// landing cycle; no busy cycle pays for a select.
	Cancel <-chan struct{}

	RunOpts
}

// RunOpts are the controls a caller sets per run on top of the machine a
// design point lowers to: sampling, progress, tracing, fault injection
// and the kernel-mode switch. They are declared here once; the experiment
// harness and the public options set them through this struct.
type RunOpts struct {
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

	// Trace, when non-nil, receives structured issue/retire/queue-op/
	// bus-grant/stall events from every core and the shared bus. The ring
	// is bounded (see trace.NewBuffer), so tracing a long run keeps the
	// most recent events.
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

// cancelCheckMask sets the Cancel polling period: Cancel is polled at the
// first gate at or past each multiple of 1024 cycles, so after a jump it
// is polled on the landing cycle.
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
	// flight end to end: issued produces minus issued consumes, summed
	// over all queues and clamped at 0, since a consume issued ahead of
	// its produce holds no item.
	QueueOcc stats.Hist
	// SAOcc is the dedicated-store occupancy histogram, recorded at each
	// delivery and consume (HEAVYWT only, nil otherwise).
	SAOcc *stats.Hist

	// Bus, Memory and Streaming are the machine counters, in the same
	// records the metrics snapshot marshals.
	Bus       BusCounters
	Memory    MemoryCounters
	Streaming StreamingCounters

	// Samples is the per-interval time series (empty unless
	// Config.SampleInterval was set).
	Samples []Sample

	// Diagnosis is the machine snapshot taken when every core halted but
	// the memory fabric never quiesced within the watchdog window (in-flight
	// junk such as an unconsumed forward); nil on a clean exit. The run's
	// outputs are still verified by the harness, but callers should surface
	// the condition rather than swallow it.
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
// parameters) with a typed *ValidationError before any cycle runs. It
// returns the number of queues the programs can name: one more than the
// highest queue any produce or consume names, 0 when none does.
func validate(cfg *Config, threads []Thread) (int, error) {
	if len(threads) == 0 {
		return 0, &ValidationError{Reason: "no threads"}
	}
	// Prog.Validate bounds every queue number by the layout's NumQueues, so
	// a slice remembers the ones in use; walking it names the lowest
	// offending queue whatever order the programs used them in.
	usedQs := make([]bool, max(cfg.Mem.Layout.NumQueues, 0))
	queues := 0
	for i, t := range threads {
		if t.Prog == nil {
			return 0, &ValidationError{Reason: fmt.Sprintf("thread %d: nil program", i)}
		}
		if err := t.Prog.Validate(len(usedQs)); err != nil {
			return 0, &ValidationError{Reason: err.Error()}
		}
		if err := t.Prog.CheckEnd(); err != nil {
			return 0, &ValidationError{Reason: fmt.Sprintf("thread %d: %v", i, err)}
		}
		for _, in := range t.Prog.Instrs {
			if in.Op == isa.Produce || in.Op == isa.Consume {
				usedQs[in.Q] = true
				queues = max(queues, in.Q+1)
			}
		}
	}
	if queues > 0 && !cfg.UseSyncArray && !cfg.Mem.HWQueues {
		return 0, &ValidationError{Reason: "program uses produce/consume but the design has neither " +
			"hardware queues nor a synchronization array (lower to software queues first)"}
	}
	if cfg.UseSyncArray {
		for q, used := range usedQs {
			if used && q >= cfg.SA.NumQueues {
				return 0, &ValidationError{Reason: fmt.Sprintf(
					"queue %d out of range: synchronization array has %d queues", q, cfg.SA.NumQueues)}
			}
		}
		// A route keyed outside the array is NewSyncArray's to reject.
		for q := 0; q < cfg.SA.NumQueues; q++ {
			r := cfg.SA.MPMC[q]
			for _, side := range [2][]int{r.Producers, r.Consumers} {
				for _, c := range side {
					if c < 0 || c >= len(threads) {
						return 0, &ValidationError{Reason: fmt.Sprintf(
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
				return 0, &ValidationError{Reason: fmt.Sprintf(
					"queue %d has no route: %d cores need explicit QueueRoutes", q, len(threads))}
			}
			r := cfg.Mem.QueueRoutes[q]
			if r.Producer < 0 || r.Producer >= len(threads) || r.Consumer < 0 || r.Consumer >= len(threads) {
				return 0, &ValidationError{Reason: fmt.Sprintf(
					"queue %d route (%d -> %d) references cores outside [0,%d)",
					q, r.Producer, r.Consumer, len(threads))}
			}
		}
	}
	return queues, nil
}

// Run executes the given threads on the configured machine and returns
// the result. The memory image carries workload data and receives all
// stores; callers own pre-population and post-run inspection.
func Run(cfg Config, image *mem.Memory, threads []Thread) (*Result, error) {
	queues, err := validate(&cfg, threads)
	if err != nil {
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

	fab, err := memsys.NewFabricQueues(cfg.Mem, image, len(threads), queues)
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
	if tr := cfg.Trace; tr != nil {
		// Probe is the last bus kind; each kind's name is resolved once.
		var kinds [bus.Probe + 1]trace.Name
		for k := range kinds {
			kinds[k] = tr.Name(bus.Kind(k).String())
		}
		fab.Bus().Trace = func(cycle uint64, k bus.Kind, src int, addr uint64) {
			tr.Record(trace.KindBusGrant, cycle, 0, src, -1, -1, kinds[k], addr)
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
	var unquiescedDiag *Diagnosis
	// The periodic duties share one gate. Sampling and progress are exact:
	// each fires on its boundary cycle, so their minimum, nextExact, caps
	// every jump. Cancel is polled (see cancelCheckMask) and never shortens
	// a jump. A duty that is off never comes due, and a busy cycle tests
	// only nextDue, the minimum of all three.
	const never = ^uint64(0)
	nextSample, nextReport, nextPoll := never, never, never
	if cfg.SampleInterval > 0 {
		nextSample = cfg.SampleInterval
	}
	if cfg.Progress != nil {
		nextReport = progressEvery
	}
	if cfg.Cancel != nil {
		nextPoll = cancelCheckMask + 1
	}
	nextDue := min(nextSample, nextReport, nextPoll)
	for {
		cycle++
		if cycle > maxCycles {
			d := diagnose("cycle budget exhausted", cycle, lastProgress, watchdog, cores, fab, sa, &cfg)
			return nil, &DeadlockError{Cycle: cycle, Detail: d.String(), Diag: d}
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
				// The stall provably repeats: charged, not re-ticked.
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
		// A consume issued before its produce (a SYNCOPTI consumer runs
		// ahead into its OzQ) holds no item in flight.
		var inFlight uint64
		if prodNow > consNow {
			inFlight = prodNow - consNow
		}
		queueOcc.Observe(inFlight)
		// The gate runs before the done, watchdog and jump checks, so a
		// cancel that is due wins over a watchdog firing on the same cycle.
		if cycle >= nextDue {
			if cycle == nextSample {
				s := Sample{Cycle: cycle, Issued: make([]uint64, len(cores))}
				for i, c := range cores {
					s.Issued[i] = c.Issued - prevIssued[i]
					prevIssued[i] = c.Issued
				}
				g := fab.Bus().TotalGrants()
				s.BusGrants = g - prevGrants
				prevGrants = g
				samples = append(samples, s)
				nextSample += cfg.SampleInterval
			}
			if cycle == nextReport {
				cfg.Progress(cycle, issuedNow)
				nextReport += progressEvery
			}
			if cycle >= nextPoll {
				select {
				case <-cfg.Cancel:
					return nil, &CanceledError{Cycle: cycle}
				default:
				}
				nextPoll = (cycle | cancelCheckMask) + 1
			}
			nextDue = min(nextSample, nextReport, nextPoll)
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
		// the cycle budget and the exact duties (nextExact) fire on exactly
		// the cycle they would without fast-forwarding.
		nextExact := min(nextSample, nextReport)
		wake := min(lastProgress+watchdog+1, maxCycles+1, nextExact, fab.WakeAt())
		if sa != nil {
			wake = min(wake, sa.WakeAt())
		}
		for i, c := range cores {
			if !coreDone[i] {
				wake = min(wake, c.NextWake(cycle))
			}
		}
		if wake <= cycle+1 {
			continue
		}
		n := wake - cycle - 1
		for i, c := range cores {
			if !coreDone[i] {
				// Charges the blocked queue operation's retry counter too.
				c.FastForward(n)
			}
		}
		queueOcc.ObserveN(inFlight, n)
		cycle += n
	}

	res := &Result{
		Cycles:     cycle,
		Samples:    samples,
		QueueOcc:   queueOcc,
		Diagnosis:  unquiescedDiag,
		FaultShots: cfg.Faults.ShotStrings(),
	}
	st, mm := &res.Streaming, &res.Memory
	// The per-core slices are cut at their final length from one backing
	// array per element type; the capacity limit keeps an append to one
	// from writing into the next.
	n := len(cores)
	u64 := make([]uint64, 13*n)
	cut := func() []uint64 { s := u64[:n:n]; u64 = u64[n:]; return s }
	res.Issued, res.IssuedComm, res.CoreCycles, res.IssueCycles = cut(), cut(), cut(), cut()
	res.Produces, res.Consumes = cut(), cut()
	st.WrFwds, st.BulkAcks, st.Probes, st.SCHits, st.RecircRetries = cut(), cut(), cut(), cut(), cut()
	mm.L2Hits, mm.L2Misses = cut(), cut()
	bds := make([]stats.Breakdown, 2*n)
	res.Breakdowns, res.StallRegions = bds[:n:n], bds[n:]
	res.Stalls = make([]core.StallCycles, n)
	for i, c := range cores {
		c.FinishTrace(cycle + 1)
		res.Breakdowns[i] = c.Breakdown()
		res.Issued[i], res.IssuedComm[i] = c.Issued, c.IssuedComm
		res.CoreCycles[i], res.IssueCycles[i] = c.Cycles(), c.IssueCycles
		res.Stalls[i], res.StallRegions[i] = c.Stalls, c.StallRegions
		res.Produces[i], res.Consumes[i] = c.Produces, c.Consumes
		ctrl := fab.Controller(i)
		st.WrFwds[i], st.BulkAcks[i], st.Probes[i] = ctrl.WrFwdsSent, ctrl.BulkAcksSent, ctrl.ProbesSent
		st.SCHits[i], st.RecircRetries[i] = ctrl.StreamCacheHits(), ctrl.RecircRetries
		mm.L2Hits[i], mm.L2Misses[i] = ctrl.L2().Hits, ctrl.L2().Misses
	}
	b := fab.Bus()
	res.Bus = BusCounters{Grants: b.TotalGrants(), Beats: b.BeatsCarried, ArbWait: b.ArbWait}
	mm.L3Hits, mm.L3Misses, mm.MemAccesses = fab.L3Hits, fab.L3Misses, fab.MemAccesses
	if sa != nil {
		st.SAFullStalls, st.SAEmptyStalls = sa.FullStalls, sa.EmptyStalls
		occ := sa.OccHist
		res.SAOcc = &occ
	}
	return res, nil
}
