// Package design defines the paper's four design points and the SYNCOPTI
// optimization variants (Section 4.1, Section 5), mapping each to a
// concrete simulator configuration.
package design

import (
	"fmt"
	"strconv"

	"hfstream/internal/core"
	"hfstream/internal/memsys"
	"hfstream/internal/queue"
	"hfstream/internal/sim"
)

// Point identifies a design point from the paper.
type Point int

// The design points.
const (
	// Existing models current commercial CMPs: software queues through the
	// conventional memory subsystem.
	Existing Point = iota
	// MemOpti adds QLU-aware write-forwarding of streaming lines to the
	// consumer's L2 (forwards compete for OzQ slots and L2 ports).
	MemOpti
	// SyncOpti adds produce/consume instructions, stream-address
	// generation, and distributed occupancy counters at the L2
	// controllers; queue data stays in the memory hierarchy.
	SyncOpti
	// HeavyWT uses a dedicated distributed queue backing store
	// (synchronization array) and a dedicated pipelined interconnect.
	HeavyWT
)

// String names the design point as the paper does.
func (p Point) String() string {
	switch p {
	case Existing:
		return "EXISTING"
	case MemOpti:
		return "MEMOPTI"
	case SyncOpti:
		return "SYNCOPTI"
	case HeavyWT:
		return "HEAVYWT"
	default:
		return fmt.Sprintf("Point(%d)", int(p))
	}
}

// Config is a fully-specified machine configuration.
type Config struct {
	Point Point
	// Label distinguishes variants (e.g. "SYNCOPTI_SC+Q64"); empty means
	// Point.String(). It never carries the core count (see Name).
	Label string

	NumQueues  int // 64
	QueueDepth int // 32 (64 in the Q64 variants)
	QLU        int // 8 (16 in the Q64 variants)

	// StreamCacheEntries enables SYNCOPTI's stream cache when > 0
	// (paper: 1 KB fully associative = 64 items).
	StreamCacheEntries int

	// InterconnectLat is HEAVYWT's dedicated interconnect end-to-end
	// latency (Figure 6 varies 1 vs 10).
	InterconnectLat int

	// Bus sensitivity knobs (Figures 10 and 11).
	BusCPB       int  // CPU cycles per bus cycle (1 baseline, 4 in Fig 10)
	BusWidth     int  // bytes per beat (16 baseline, 128 in Fig 11)
	BusPipelined bool // baseline: true

	// RegMappedQueues upgrades HEAVYWT's produce/consume to
	// register-mapped queues (paper §3.1.3): the queue operations fold
	// into the defining/using instructions.
	RegMappedQueues bool
	// SAConsumeToUse overrides HEAVYWT's consume-to-use latency
	// (0 = default 1 cycle). A centralized dedicated store (paper
	// §3.5.2) sits farther from the cores than the distributed one.
	SAConsumeToUse int
	// ProbeTimeout overrides SYNCOPTI's partial-line probe timeout
	// (0 = default).
	ProbeTimeout int

	// Cores and Parallel are the one representation of pipeline shape:
	// names, specs and the experiment harness all derive from them. 2 is
	// the paper's dual-core machine, 3 and up run k-stage DSWP pipelines
	// (one stage per core), and 1 runs the unpartitioned loop.
	Cores int
	// Parallel selects the parallel-stage (PS-DSWP) shape instead of a
	// k-stage chain: Cores-1 replicated workers plus a merger. Requires
	// Cores >= 3.
	Parallel bool
}

// MaxCores is the largest machine the experiment layer is calibrated for.
const MaxCores = 8

// defaultCores is the core count the point's bare label stands for: four
// on the parallel-stage points (MPMCConfig), the paper's two elsewhere.
func (c Config) defaultCores() int {
	if c.Parallel {
		return 4
	}
	return 2
}

// Name returns the variant label, with a "_<k>CORE" suffix when the core
// count differs from the one the bare label stands for — the only place
// the suffix is ever produced (e.g. "SYNCOPTI_SC+Q64_4CORE", but "MPMC"
// at its own four cores).
func (c Config) Name() string {
	name := c.Label
	if name == "" {
		name = c.Point.String()
	}
	if c.Cores != c.defaultCores() {
		name += "_" + strconv.Itoa(c.Cores) + "CORE"
	}
	return name
}

func base(p Point) Config {
	return Config{
		Point:           p,
		NumQueues:       64,
		QueueDepth:      32,
		QLU:             8,
		InterconnectLat: 1,
		BusCPB:          1,
		BusWidth:        16,
		BusPipelined:    true,
		Cores:           2,
	}
}

// ExistingConfig returns the EXISTING baseline.
func ExistingConfig() Config { return base(Existing) }

// MemOptiConfig returns the MEMOPTI design point.
func MemOptiConfig() Config { return base(MemOpti) }

// SyncOptiConfig returns the SYNCOPTI design point.
func SyncOptiConfig() Config { return base(SyncOpti) }

// SyncOptiQ64Config returns SYNCOPTI with 64-entry queues and QLU 16
// (paper Section 5, "Q64").
func SyncOptiQ64Config() Config {
	c := base(SyncOpti)
	c.Label = "SYNCOPTI_Q64"
	c.QueueDepth = 64
	c.QLU = 16
	return c
}

// SyncOptiSCConfig returns SYNCOPTI with the 1 KB stream cache ("SC").
func SyncOptiSCConfig() Config {
	c := base(SyncOpti)
	c.Label = "SYNCOPTI_SC"
	c.StreamCacheEntries = 64
	return c
}

// SyncOptiSCQ64Config returns the paper's best light-weight design:
// SYNCOPTI with both the stream cache and 64-entry queues ("SC+Q64").
func SyncOptiSCQ64Config() Config {
	c := SyncOptiQ64Config()
	c.Label = "SYNCOPTI_SC+Q64"
	c.StreamCacheEntries = 64
	return c
}

// HeavyWTConfig returns the HEAVYWT design point.
func HeavyWTConfig() Config { return base(HeavyWT) }

// netQueueBufsPerHop is the FIFO buffering each network hop contributes
// when the interconnect's own buffers back the queues (paper §3.5.3).
const netQueueBufsPerHop = 4

// NetQueueConfig returns the §3.5.3 network-backed-queue design: the
// pipelined interconnect's per-hop buffers are the only queue storage, so
// capacity and transit latency both scale with the physical separation of
// the communicating cores. Threads on nearby cores get little decoupling
// — the paper's scalability caveat for this design.
func NetQueueConfig(hops int) Config {
	c := base(HeavyWT)
	c.Label = fmt.Sprintf("NETQUEUE_%dhop", hops)
	c.QueueDepth = hops * netQueueBufsPerHop
	// The memory layout is unused but must stay valid: QLU has to divide
	// the depth (odd hop counts give depths like 12 that 8 does not).
	for c.QueueDepth%c.QLU != 0 {
		c.QLU /= 2
	}
	c.InterconnectLat = hops
	return c
}

// FourPoints returns the paper's four primary design points in Figure 7's
// bar order (HEAVYWT, SYNCOPTI, MEMOPTI, EXISTING).
func FourPoints() []Config {
	return []Config{HeavyWTConfig(), SyncOptiConfig(), MemOptiConfig(), ExistingConfig()}
}

// StandardConfigs returns every named design point of the evaluation —
// the four primary points plus the Figure 12 queue-size and stream-cache
// variants — in a fixed, CLI- and goldens-friendly order.
func StandardConfigs() []Config {
	return []Config{
		ExistingConfig(), MemOptiConfig(), SyncOptiConfig(),
		SyncOptiQ64Config(), SyncOptiSCConfig(), SyncOptiSCQ64Config(),
		HeavyWTConfig(),
	}
}

// Layout returns the queue layout implied by the configuration.
func (c Config) Layout() queue.Layout {
	return queue.Layout{
		NumQueues: c.NumQueues,
		Depth:     c.QueueDepth,
		QLU:       c.QLU,
		LineBytes: 128,
	}
}

// SimConfig lowers the design point to a simulator configuration.
func (c Config) SimConfig() sim.Config {
	layout := c.Layout()
	mp := memsys.DefaultParams(layout)
	mp.Bus.CPB = c.BusCPB
	mp.Bus.WidthBytes = c.BusWidth
	mp.Bus.Pipelined = c.BusPipelined

	cfg := sim.Config{Mem: mp, Core: core.DefaultParams()}
	switch c.Point {
	case Existing:
		// Conventional memory subsystem: nothing extra.
	case MemOpti:
		cfg.Mem.WriteForward = true
		cfg.Mem.ForwardThroughOzQ = true
	case SyncOpti:
		cfg.Mem.WriteForward = true
		cfg.Mem.HWQueues = true
		cfg.Mem.StreamCacheEntries = c.StreamCacheEntries
		if c.ProbeTimeout > 0 {
			cfg.Mem.ConsumeTimeout = c.ProbeTimeout
		}
	case HeavyWT:
		cfg.UseSyncArray = true
		sa := queue.DefaultSAParams(c.NumQueues, c.QueueDepth)
		sa.InterconnectLatency = c.InterconnectLat
		if c.SAConsumeToUse > 0 {
			sa.ConsumeToUse = c.SAConsumeToUse
		}
		cfg.SA = sa
		cfg.Core.RegMappedQueues = c.RegMappedQueues
	}
	return cfg
}

// RegMappedConfig returns the §3.1.3 register-mapped-queue design: the
// HEAVYWT substrate with zero-instruction-overhead queue operations.
func RegMappedConfig() Config {
	c := base(HeavyWT)
	c.Label = "REGMAPPED"
	c.RegMappedQueues = true
	return c
}

// CentralizedStoreConfig returns the §3.5.2 centralized dedicated store
// variant: HEAVYWT storage placed in one central structure, farther from
// the consuming cores (modeled as a larger consume-to-use latency).
func CentralizedStoreConfig(consumeToUse int) Config {
	c := base(HeavyWT)
	c.Label = "HEAVYWT_CENTRAL"
	c.SAConsumeToUse = consumeToUse
	return c
}

// SoftwareQueues reports whether programs must be lowered to software
// queue sequences for this design point.
func (c Config) SoftwareQueues() bool {
	return c.Point == Existing || c.Point == MemOpti
}

// WithCores returns the configuration retargeted to an n-core machine:
// chains run one DSWP stage per core, parallel-stage points n-1 workers
// plus a merger. Name derives the suffix, so WithCores(2) names the
// paper's machine and MPMCConfig().WithCores(4) is still "MPMC".
func (c Config) WithCores(n int) Config {
	c.Cores = n
	return c
}

// MPMCConfig returns the parallel-stage design point: the HEAVYWT
// substrate running Cores-1 replicated workers and a merger over
// multi-producer/multi-consumer-capable queues. The name honours the
// queue semantics the topology exercises even though the DSWP
// parallel-stage partitioner realizes them as SPSC lanes — the syncarray
// and software lowerings accept true MPMC routes for custom programs.
func MPMCConfig() Config {
	c := base(HeavyWT)
	c.Label = "MPMC"
	c.Cores = 4
	c.Parallel = true
	return c
}

// MPMCQ64Config is MPMCConfig with 64-entry queues and QLU 16, matching
// the Q64 variants of the dual-core study.
func MPMCQ64Config() Config {
	c := MPMCConfig()
	c.Label = "MPMC_Q64"
	c.QueueDepth = 64
	c.QLU = 16
	return c
}
