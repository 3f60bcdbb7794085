package design

import "fmt"

// HardwareCost quantifies a design point's additional on-chip state and
// OS impact relative to EXISTING — the cost side of the paper's
// cost/performance trade-off (§3.4-§3.5 and the conclusion's "98% of the
// speedup ... using only 1% of the additional on-chip storage hardware").
type HardwareCost struct {
	Design string

	// DedicatedStorageBytes is streaming-specific on-chip storage added
	// beyond the conventional memory hierarchy (the HEAVYWT
	// synchronization array, SYNCOPTI's stream cache).
	DedicatedStorageBytes int
	// CounterBytes is distributed synchronization-counter state
	// (SYNCOPTI occupancy counters, HEAVYWT credit counters).
	CounterBytes int
	// NewInterconnect reports whether the design adds a dedicated
	// core-to-core network beyond the existing memory bus.
	NewInterconnect bool
	// ISAChanges reports whether new instructions are required.
	ISAChanges bool

	// OSContextBytes is the architectural streaming state the OS must
	// save and restore on a context switch: queue contents for dedicated
	// stores, counters for SYNCOPTI, nothing for memory-backed software
	// queues (their state lives in ordinary pages).
	OSContextBytes int
	// OSDrainRequired reports whether in-flight network state must be
	// drained or spilled on a switch (HEAVYWT's interconnect packets).
	OSDrainRequired bool
}

// itemBytes is the architectural queue item size.
const itemBytes = 8

// Cost computes the hardware/OS cost model for the design point.
func (c Config) Cost() HardwareCost {
	hc := HardwareCost{Design: c.Name()}
	queueStateBytes := NumQueues * c.QueueDepth * itemBytes
	// One occupancy/credit counter per queue per core, two cores; a
	// counter is 2 bytes (counts to the queue depth).
	counterBytes := NumQueues * 2 * 2

	switch c.Point {
	case Existing:
		// Software queues in ordinary memory: no new state anywhere.
	case MemOpti:
		// Write-forwarding needs a per-line fill bitmap and the (N, entry
		// size) parameters in each L2 controller; count the bitmaps for
		// the queue-region lines as counter state.
		hc.CounterBytes = NumQueues * c.QueueDepth / c.QLU * 2 * 2
	case SyncOpti:
		hc.ISAChanges = true
		hc.CounterBytes = counterBytes
		hc.DedicatedStorageBytes = c.StreamCacheEntries * (itemBytes + 8) // data + tag
		hc.OSContextBytes = counterBytes
	case HeavyWT:
		hc.ISAChanges = true
		hc.NewInterconnect = true
		hc.CounterBytes = counterBytes
		hc.DedicatedStorageBytes = queueStateBytes
		// The queue contents and counters are process state.
		hc.OSContextBytes = queueStateBytes + counterBytes
		hc.OSDrainRequired = true
	}
	return hc
}

// TotalAddedBytes is the design's total additional on-chip storage.
func (h HardwareCost) TotalAddedBytes() int {
	return h.DedicatedStorageBytes + h.CounterBytes
}

// ContextSwitchCycles estimates the OS overhead of switching out a
// streaming process: draining in-flight state plus spilling/refilling the
// architectural streaming state at the given memory bandwidth.
func (h HardwareCost) ContextSwitchCycles(bytesPerCycle float64, drainCycles int) float64 {
	cycles := 2 * float64(h.OSContextBytes) / bytesPerCycle // save + restore
	if h.OSDrainRequired {
		cycles += float64(drainCycles)
	}
	return cycles
}

// String summarizes the cost model.
func (h HardwareCost) String() string {
	return fmt.Sprintf("%s: +%dB storage (+%dB counters), ISA=%v, new interconnect=%v, OS context=%dB",
		h.Design, h.DedicatedStorageBytes, h.CounterBytes, h.ISAChanges, h.NewInterconnect, h.OSContextBytes)
}
