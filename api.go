package hfstream

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"hfstream/internal/design"
	"hfstream/internal/sim"
	"hfstream/internal/stats"
	"hfstream/internal/workloads"
)

// Design is one machine configuration from the paper's design space.
type Design struct {
	cfg design.Config
}

// The paper's design points and SYNCOPTI variants.
var (
	// Existing models current commercial CMPs (software queues).
	Existing = Design{design.ExistingConfig()}
	// MemOpti adds QLU-aware write-forwarding to the consumer's L2.
	MemOpti = Design{design.MemOptiConfig()}
	// SyncOpti adds produce/consume instructions and distributed
	// occupancy counters; queue data stays in the memory hierarchy.
	SyncOpti = Design{design.SyncOptiConfig()}
	// SyncOptiQ64 is SYNCOPTI with 64-entry queues packed 16 per line.
	SyncOptiQ64 = Design{design.SyncOptiQ64Config()}
	// SyncOptiSC is SYNCOPTI with the 1 KB stream cache.
	SyncOptiSC = Design{design.SyncOptiSCConfig()}
	// SyncOptiSCQ64 is the paper's best light-weight design (within 2% of
	// HEAVYWT at 1% of the storage).
	SyncOptiSCQ64 = Design{design.SyncOptiSCQ64Config()}
	// HeavyWT uses the dedicated synchronization array and interconnect.
	HeavyWT = Design{design.HeavyWTConfig()}
	// MPMC is the parallel-stage design point: the HEAVYWT substrate
	// running three replicated workers plus a merger on four cores, over
	// queues whose backing stores accept multi-producer/multi-consumer
	// routes.
	MPMC = Design{design.MPMCConfig()}
	// MPMCQ64 is MPMC with 64-entry queues packed 16 per line.
	MPMCQ64 = Design{design.MPMCQ64Config()}
)

// Designs returns all design points in evaluation order.
func Designs() []Design {
	return []Design{Existing, MemOpti, SyncOpti, SyncOptiQ64, SyncOptiSC, SyncOptiSCQ64, HeavyWT}
}

// RegMapped returns the §3.1.3 register-mapped-queue design: HEAVYWT's
// substrate with queue operations folded into the defining and using
// instructions.
func RegMapped() Design { return Design{design.RegMappedConfig()} }

// NetQueue returns the §3.5.3 network-backed-queue design for cores the
// given number of hops apart: the interconnect's per-hop buffers are the
// only queue storage, so decoupling scales with physical separation.
func NetQueue(hops int) Design { return Design{design.NetQueueConfig(hops)} }

// CentralizedStore returns the §3.5.2 centralized-dedicated-store variant
// of HEAVYWT with the given consume-to-use latency (a central structure
// sits farther from the consuming cores than a distributed one). A run on
// a latency below 1 fails with a *ValidationError.
func CentralizedStore(consumeToUse int) Design {
	return Design{design.CentralizedStoreConfig(consumeToUse)}
}

// DesignByName resolves a design point by its paper name. Beyond the
// seven standard points (e.g. "SYNCOPTI_SC+Q64") it accepts the §3
// variants — "REGMAPPED", "NETQUEUE_<h>hop" (network-backed queues for
// cores h hops apart, h >= 1), and "HEAVYWT_CENTRAL" (the centralized
// dedicated store, with its default 4-cycle consume-to-use latency) —
// the parallel-stage points "MPMC" and "MPMC_Q64", and any of those with
// exactly one "_<k>CORE" suffix (3 <= k <= 8), which retargets it to k
// cores (e.g. "SYNCOPTI_SC+Q64_4CORE"). The suffix is omitted at the
// point's own core count: the bare name is the paper's dual-core machine
// (so "_2CORE" is no name at all), and "MPMC_4CORE" resolves to "MPMC".
func DesignByName(name string) (Design, error) {
	if d, ok := baseDesign(name); ok {
		return d, nil
	}
	if rest, ok := strings.CutSuffix(name, "CORE"); ok {
		if i := strings.LastIndexByte(rest, '_'); i > 0 {
			if k, err := strconv.Atoi(rest[i+1:]); err == nil && k != 2 {
				if base, ok := baseDesign(rest[:i]); ok {
					return base.retarget(k)
				}
			}
		}
	}
	return Design{}, fmt.Errorf("hfstream: unknown design %q (valid: %s)",
		name, strings.Join(DesignNames(), ", "))
}

// baseDesign resolves the names that carry no core-count suffix.
func baseDesign(name string) (Design, bool) {
	for _, d := range Designs() {
		if d.Name() == name {
			return d, true
		}
	}
	switch {
	case name == "REGMAPPED":
		return RegMapped(), true
	case name == "HEAVYWT_CENTRAL":
		return CentralizedStore(centralConsumeToUse), true
	case name == "MPMC":
		return MPMC, true
	case name == "MPMC_Q64":
		return MPMCQ64, true
	case strings.HasPrefix(name, "NETQUEUE_") && strings.HasSuffix(name, "hop"):
		h, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "NETQUEUE_"), "hop"))
		if err == nil && h >= 1 {
			return NetQueue(h), true
		}
	}
	return Design{}, false
}

// retarget is WithCores for a count that arrived as data — a name's
// "_<k>CORE" suffix — and so has to be range-checked.
func (d Design) retarget(k int) (Design, error) {
	if k < 3 || k > maxCustomCores {
		return Design{}, fmt.Errorf("hfstream: design %s: core count %d out of range 3..%d (the unsuffixed name is the dual-core machine)",
			d.Name(), k, maxCustomCores)
	}
	return d.WithCores(k), nil
}

// DesignNames enumerates every form DesignByName accepts: the seven
// standard points in evaluation order followed by the §3 variant forms
// ("NETQUEUE_<h>hop" is a template — substitute the hop count) and the
// suffix template "<design>_<k>CORE": one suffix, k in 3..8, omitted at
// the point's own core count. The DesignByName error message lists
// exactly these names, and Spec canonicalization resolves aliases against
// them.
func DesignNames() []string {
	names := make([]string, 0, len(Designs())+6)
	for _, d := range Designs() {
		names = append(names, d.Name())
	}
	return append(names, "REGMAPPED", "NETQUEUE_<h>hop", "HEAVYWT_CENTRAL",
		"MPMC", "MPMC_Q64", "<design>_<k>CORE")
}

// centralConsumeToUse is DesignByName's consume-to-use latency for
// "HEAVYWT_CENTRAL" (a central structure several cycles from the cores);
// use CentralizedStore directly for other distances.
const centralConsumeToUse = 4

// Name returns the paper's label for the design point.
func (d Design) Name() string { return d.cfg.Name() }

// WithInterconnectLatency returns a copy with the HEAVYWT dedicated
// interconnect's end-to-end latency changed (paper Figure 6). A run on a
// latency below 1 fails with a *ValidationError.
func (d Design) WithInterconnectLatency(cycles int) Design {
	d.cfg.InterconnectLat = cycles
	return d
}

// WithBus returns a copy with the shared bus reconfigured: cpuCyclesPerBus
// is the bus clock ratio and widthBytes the per-beat width (paper Figures
// 10 and 11).
func (d Design) WithBus(cpuCyclesPerBus, widthBytes int, pipelined bool) Design {
	d.cfg.BusCPB = cpuCyclesPerBus
	d.cfg.BusWidth = widthBytes
	d.cfg.BusPipelined = pipelined
	return d
}

// WithQueues returns a copy with the queue depth and layout unit changed.
func (d Design) WithQueues(depth, qlu int) Design {
	d.cfg.QueueDepth = depth
	d.cfg.QLU = qlu
	return d
}

// WithCores returns a copy retargeted to an n-core machine (2..8; 3..8 on
// parallel-stage designs — runs on anything else fail). Pipelined runs
// then partition the kernel into n stages (or n-1 workers plus a merger)
// instead of the paper's two, and Name gains the "_<n>CORE" suffix unless
// n is the point's own count.
func (d Design) WithCores(n int) Design {
	d.cfg = d.cfg.WithCores(n)
	return d
}

// Cores returns the design's core count for pipelined runs (2 for the
// paper's dual-core machine).
func (d Design) Cores() int { return d.cfg.Cores }

// ParallelStage reports whether pipelined runs use the parallel-stage
// (replicated workers + merger) shape rather than a k-stage chain.
func (d Design) ParallelStage() bool { return d.cfg.Parallel }

// SupportsMPMC reports whether the design can run workloads whose queue
// topology puts more than one producer or consumer on a queue. The
// software-queue lowerings and the synchronization array implement the
// ticket discipline natively; the SYNCOPTI in-memory controller assigns
// slots from per-core cumulative counters, which collide with multiple
// endpoints, so RunPrograms refuses such workloads on those designs with
// MPMCUnsupportedError.
func (d Design) SupportsMPMC() bool { return d.cfg.SupportsMPMC() }

// Benchmark is one of the paper's nine workload loops.
type Benchmark struct {
	b *workloads.Benchmark
}

// Benchmarks returns the nine workloads in the paper's figure order.
func Benchmarks() []Benchmark {
	all := workloads.All()
	out := make([]Benchmark, len(all))
	for i, b := range all {
		out[i] = Benchmark{b}
	}
	return out
}

// BenchmarkByName resolves a workload by name (art, equake, mcf, bzip2,
// adpcmdec, epicdec, wc, fir, fft2).
func BenchmarkByName(name string) (Benchmark, error) {
	b, err := workloads.ByName(name)
	if err != nil {
		return Benchmark{}, err
	}
	return Benchmark{b}, nil
}

// Name returns the benchmark name.
func (b Benchmark) Name() string { return b.b.Name }

// Suite returns the originating suite (SPEC, Mediabench, StreamIt, ...).
func (b Benchmark) Suite() string { return b.b.Suite }

// Function returns the paper's Table 1 function name.
func (b Benchmark) Function() string { return b.b.Function }

// Iterations returns the simulated loop trip count.
func (b Benchmark) Iterations() int { return b.b.Iterations }

// ExecPct returns the loop's share of whole-program execution time from
// the paper's Table 1, in percent.
func (b Benchmark) ExecPct() int { return b.b.ExecPct }

// Breakdown is a core's execution-time split across machine regions; the
// six buckets sum to the core's total cycles (paper Figures 7, 10-12).
type Breakdown struct {
	PreL2, L2, Bus, L3, Mem, PostL2 uint64
}

// Total returns the sum of all buckets.
func (bd Breakdown) Total() uint64 {
	return bd.PreL2 + bd.L2 + bd.Bus + bd.L3 + bd.Mem + bd.PostL2
}

// String renders the breakdown as "PreL2=… L2=… BUS=… L3=… MEM=… PostL2=…".
func (bd Breakdown) String() string {
	return fmt.Sprintf("PreL2=%d L2=%d BUS=%d L3=%d MEM=%d PostL2=%d",
		bd.PreL2, bd.L2, bd.Bus, bd.L3, bd.Mem, bd.PostL2)
}

func fromStats(s stats.Breakdown) Breakdown {
	return Breakdown{
		PreL2:  s.Cycles[stats.PreL2],
		L2:     s.Cycles[stats.L2],
		Bus:    s.Cycles[stats.Bus],
		L3:     s.Cycles[stats.L3],
		Mem:    s.Cycles[stats.Mem],
		PostL2: s.Cycles[stats.PostL2],
	}
}

// Result reports one verified simulation.
type Result struct {
	// Cycles is total execution time.
	Cycles uint64
	// Breakdowns holds one entry per core (producer first).
	Breakdowns []Breakdown
	// Instructions and CommInstructions are per-core dynamic counts.
	Instructions     []uint64
	CommInstructions []uint64

	// CoreCycles is each core's active cycle count (a core stops counting
	// once halted and drained, so it can undercut Cycles). IssueCycles
	// counts the cycles with at least one instruction issued, so
	// CoreCycles[i] - IssueCycles[i] is core i's total stall time.
	CoreCycles  []uint64
	IssueCycles []uint64
	// StallSummaries gives each core's zero-issue cycles attributed to the
	// blocking reason, rendered human-readable (e.g. "operand=1200 ...").
	StallSummaries []string

	// Memory-system counters.
	BusGrants       uint64
	BusBeats        uint64
	BusArbWait      uint64
	L3Hits          uint64
	L3Misses        uint64
	MemAccesses     uint64
	WriteForwards   []uint64
	BulkAcks        []uint64
	Probes          []uint64
	StreamCacheHits []uint64

	// Synchronization-array stalls (zero unless the design uses HEAVYWT's
	// dedicated store).
	SAFullStalls  uint64
	SAEmptyStalls uint64

	// UnquiescedExit reports that every core halted but the memory fabric
	// never quiesced within the watchdog window; UnquiescedDetail carries
	// the rendered Diagnosis captured at exit. The outputs are still
	// verified.
	UnquiescedExit   bool
	UnquiescedDetail string
	// Diagnosis is the structured machine snapshot behind
	// UnquiescedDetail (nil on a clean exit).
	Diagnosis *Diagnosis

	// FaultLog lists the injected faults that fired during the run, in
	// firing order (empty without WithFaults/WithFaultInjector).
	FaultLog []string

	res *sim.Result // full internal result, for the report helpers
}

// TimeSeriesReport renders the per-interval throughput samples collected
// by WithSampleInterval as sparkline text (empty without sampling).
func (r Result) TimeSeriesReport(interval uint64) string {
	if r.res == nil {
		return ""
	}
	return r.res.TraceReport(interval)
}

// TimeSeriesCSV renders the same samples as CSV (empty without sampling).
func (r Result) TimeSeriesCSV(interval uint64) string {
	if r.res == nil {
		return ""
	}
	return r.res.CSV(interval)
}

// CommRatio returns core i's communication-to-application dynamic
// instruction ratio (paper Figure 8).
func (r Result) CommRatio(i int) float64 {
	app := r.Instructions[i] - r.CommInstructions[i]
	if app == 0 {
		return 0
	}
	return float64(r.CommInstructions[i]) / float64(app)
}

func fromSim(res *sim.Result) Result {
	out := Result{
		Cycles:           res.Cycles,
		Instructions:     res.Issued,
		CommInstructions: res.IssuedComm,
		CoreCycles:       res.CoreCycles,
		IssueCycles:      res.IssueCycles,
		BusGrants:        res.Bus.Grants,
		BusBeats:         res.Bus.Beats,
		BusArbWait:       res.Bus.ArbWait,
		L3Hits:           res.Memory.L3Hits,
		L3Misses:         res.Memory.L3Misses,
		MemAccesses:      res.Memory.MemAccesses,
		WriteForwards:    res.Streaming.WrFwds,
		BulkAcks:         res.Streaming.BulkAcks,
		Probes:           res.Streaming.Probes,
		StreamCacheHits:  res.Streaming.SCHits,
		SAFullStalls:     res.Streaming.SAFullStalls,
		SAEmptyStalls:    res.Streaming.SAEmptyStalls,
		Diagnosis:        res.Diagnosis,
		FaultLog:         res.FaultShots,
		res:              res,
	}
	if res.Diagnosis != nil {
		out.UnquiescedExit, out.UnquiescedDetail = true, res.Diagnosis.String()
	}
	for _, bd := range res.Breakdowns {
		out.Breakdowns = append(out.Breakdowns, fromStats(bd))
	}
	for i := range res.Stalls {
		out.StallSummaries = append(out.StallSummaries, res.Stalls[i].Summary())
	}
	return out
}

// Run executes the pipelined (two-thread) version of the benchmark on the
// design point. The run is verified end to end: the memory image must
// match a functional-interpreter oracle, so a successful Run also
// certifies simulator and partitioner correctness for that input. It is
// RunCtx without cancellation or options.
func Run(b Benchmark, d Design) (Result, error) {
	return RunCtx(context.Background(), b, d)
}

// RunSingleThreaded executes the unpartitioned loop on one core of the
// baseline machine (the paper's Figure 9 reference). It is
// RunSingleThreadedCtx without cancellation or options.
func RunSingleThreaded(b Benchmark) (Result, error) {
	return RunSingleThreadedCtx(context.Background(), b)
}
