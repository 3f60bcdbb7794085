// Package queue provides the inter-thread queue machinery: the shared
// memory layout used by software queues and SYNCOPTI (paper Figure 5), the
// dedicated synchronization-array backing store and the dedicated pipelined
// interconnect used by HEAVYWT.
package queue

import "fmt"

// Base is the start of the reserved streaming ("queue") address region.
// The memory subsystem treats accesses to this region as streaming
// accesses (the paper's OS-marked stream pages).
const Base uint64 = 0x4000_0000_0000

// Layout describes how queue slots map onto cache lines (paper Figure 5).
// Each slot holds an 8-byte data item and an 8-byte full/empty flag when
// used by software queues; QLU slots share one cache line.
type Layout struct {
	NumQueues int
	Depth     int // slots per queue; must be a multiple of QLU
	QLU       int // queue layout unit: slots per cache line
	LineBytes int // cache line size of the backing store level (L2/L3)
}

// Validate checks the layout for internal consistency.
func (l Layout) Validate() error {
	if l.NumQueues <= 0 || l.Depth <= 0 || l.QLU <= 0 || l.LineBytes <= 0 {
		return fmt.Errorf("queue: non-positive layout field: %+v", l)
	}
	if l.Depth%l.QLU != 0 {
		return fmt.Errorf("queue: depth %d not a multiple of QLU %d", l.Depth, l.QLU)
	}
	if l.LineBytes%l.QLU != 0 {
		return fmt.Errorf("queue: line size %d not divisible by QLU %d", l.LineBytes, l.QLU)
	}
	if l.SlotBytes() < 8 {
		return fmt.Errorf("queue: slot size %dB below the 8B item size (QLU %d too dense for %dB lines)",
			l.SlotBytes(), l.QLU, l.LineBytes)
	}
	return nil
}

// HasFlags reports whether slots are wide enough to co-locate a full/empty
// flag with the data word, as software queues require. SYNCOPTI's densest
// layout (Q64: 16 items per 128-byte line) has no flag words; occupancy
// counters replace them.
func (l Layout) HasFlags() bool { return l.SlotBytes() >= 16 }

// SlotBytes returns the padded size of one queue slot.
func (l Layout) SlotBytes() int { return l.LineBytes / l.QLU }

// QueueBytes returns the memory footprint of one queue.
func (l Layout) QueueBytes() int { return l.Depth * l.SlotBytes() }

// SlotAddr returns the address of slot's data word in queue q.
func (l Layout) SlotAddr(q, slot int) uint64 {
	return Base + uint64(q)*uint64(l.QueueBytes()) + uint64(slot)*uint64(l.SlotBytes())
}

// FlagAddr returns the address of slot's full/empty flag word.
func (l Layout) FlagAddr(q, slot int) uint64 { return l.SlotAddr(q, slot) + 8 }

// LineOf returns the line-aligned address containing slot of queue q.
func (l Layout) LineOf(q, slot int) uint64 {
	return l.SlotAddr(q, slot) &^ (uint64(l.LineBytes) - 1)
}

// SlotOfAddr inverts SlotAddr: it reverse-maps a streaming address to its
// (queue, slot) pair, as the stream cache's fill path does. ok is false if
// addr is outside the queue region.
func (l Layout) SlotOfAddr(addr uint64) (q, slot int, ok bool) {
	if addr < Base {
		return 0, 0, false
	}
	off := addr - Base
	q = int(off / uint64(l.QueueBytes()))
	if q >= l.NumQueues {
		return 0, 0, false
	}
	slot = int(off % uint64(l.QueueBytes()) / uint64(l.SlotBytes()))
	return q, slot, true
}

// RegionEnd returns the first address past the whole queue region.
func (l Layout) RegionEnd() uint64 {
	return Base + uint64(l.NumQueues)*uint64(l.QueueBytes())
}

// InRegion reports whether addr is a streaming (queue region) address.
func (l Layout) InRegion(addr uint64) bool {
	return addr >= Base && addr < l.RegionEnd()
}
