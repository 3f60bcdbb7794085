// Package memsys models the memory subsystem of the dual-core CMP: the
// per-core write-through L1s and write-back L2s with their OzQ transaction
// queues, the snoop-based write-invalidate coherence over the shared
// split-transaction bus, the shared L3 and main memory, and the streaming
// machinery layered on top of them (write-forwarding, occupancy counters,
// stream-address generation and the stream cache).
//
// The same package implements three of the paper's four design points:
// EXISTING (plain software queues), MEMOPTI (EXISTING + QLU-aware
// write-forwarding) and SYNCOPTI (produce/consume instructions with
// distributed occupancy counters). HEAVYWT's dedicated store lives in
// package queue; its loads and stores still go through this package.
package memsys

import (
	"fmt"

	"hfstream/internal/bus"
	"hfstream/internal/cache"
	"hfstream/internal/queue"
)

// Params configures the memory subsystem (paper Table 2 defaults via
// DefaultParams).
type Params struct {
	L1 cache.Params // per-core L1D: 16 KB, 4-way, 64 B, 1 cycle
	L2 cache.Params // per-core L2: 256 KB, 8-way, 128 B, 5-9 cycles
	L3 cache.Params // shared L3: 1.5 MB, 12-way, 128 B, >12 cycles

	// Bus configures the shared L3 bus.
	Bus bus.Params

	// OzQSize is the depth of each L2 controller's ordered transaction
	// queue, whose entries double as MSHRs.
	OzQSize int
	// L2Ports is the number of OzQ entries that may access the L2 array
	// per cycle.
	L2Ports int

	// Layout describes the streaming queue region.
	Layout queue.Layout

	// WriteForward enables QLU-aware write-forwarding of streaming lines
	// to the consumer's L2 (MEMOPTI, SYNCOPTI). Without HWQueues (MEMOPTI)
	// the forwards go through the producer's OzQ, where they compete for L2
	// ports; SYNCOPTI's forwarding logic is in the cache controller and
	// bypasses the OzQ.
	WriteForward bool
	// HWQueues enables produce/consume instruction support in the L2
	// controller with distributed occupancy counters (SYNCOPTI).
	HWQueues bool
	// StreamCacheEntries sizes the fully-associative stream cache
	// (entries of one queue item each; paper: 1 KB = 64 entries).
	// 0 disables the stream cache.
	StreamCacheEntries int
	// ConsumeTimeout is the number of cycles a consume waits on an empty
	// queue before probing the producer to elicit a partial-line flush.
	ConsumeTimeout int

	// QueueRoutes maps queue numbers to their producing and consuming
	// cores for machines with more than two cores (multi-stage
	// pipelines). Nil selects the paper's dual-core default, where each
	// core's peer is the other core. Queues beyond the slice keep the
	// dual-core behaviour.
	QueueRoutes []QueueRoute
}

// MemLat is the main-memory access latency in cycles (Table 2).
const MemLat = 141

const (
	// recircInterval is the retry cadence, in cycles, of OzQ entries that
	// recirculate (blocked by memory-fence ordering); each retry consumes
	// an L2 port, modeling the paper's recirculation port pollution.
	recircInterval = 4
	// streamAddrGenLat is the stream-address-generation latency of
	// produce/consume instructions, overlapped with the L1 access.
	streamAddrGenLat = 2
)

// QueueRoute names the cores on either end of one queue.
type QueueRoute struct {
	Producer int
	Consumer int
}

// DefaultParams returns the Table 2 baseline with the given queue layout.
func DefaultParams(layout queue.Layout) Params {
	return Params{
		L1:             cache.Params{SizeBytes: 16 << 10, Ways: 4, LineBytes: 64, Latency: 1},
		L2:             cache.Params{SizeBytes: 256 << 10, Ways: 8, LineBytes: 128, Latency: 5},
		L3:             cache.Params{SizeBytes: 1536 << 10, Ways: 12, LineBytes: 128, Latency: 12},
		Bus:            bus.DefaultParams(),
		OzQSize:        32,
		L2Ports:        4,
		Layout:         layout,
		ConsumeTimeout: 50,
	}
}

// Validate checks parameter consistency.
func (p Params) Validate() error {
	for _, c := range []cache.Params{p.L1, p.L2, p.L3} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if p.L2.LineBytes != p.L3.LineBytes {
		return fmt.Errorf("memsys: L2/L3 line sizes differ (%d vs %d)", p.L2.LineBytes, p.L3.LineBytes)
	}
	if p.OzQSize <= 0 || p.L2Ports <= 0 {
		return fmt.Errorf("memsys: OzQ size %d and ports %d must be positive", p.OzQSize, p.L2Ports)
	}
	if err := p.Bus.Validate(); err != nil {
		return err
	}
	if err := p.Layout.Validate(); err != nil {
		return err
	}
	if p.Layout.LineBytes != p.L2.LineBytes {
		return fmt.Errorf("memsys: queue layout line size %d != L2 line size %d",
			p.Layout.LineBytes, p.L2.LineBytes)
	}
	return nil
}
