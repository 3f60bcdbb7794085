package queue

import (
	"fmt"

	"hfstream/internal/port"
)

// SAPort is a per-core view of the synchronization array. port.Stream
// carries no core identity, so MPMC dispatch — which must know *which*
// producer or consumer is operating — lives here: each core gets its own
// Port, and the Port translates (core, logical queue, per-core operation
// count) into the physical lane sub-queue that the ticket discipline
// assigns. For queues without an MPMC route the Port is a transparent
// pass-through, so SPSC behaviour is bit-for-bit the classic SyncArray.
type SAPort struct {
	sa   *SyncArray
	core int
	// prodTick / consTick count this core's completed produces/consumes
	// per logical MPMC queue. They advance only on success, so a stalled
	// operation retries the same lane — the dispatch is a pure function
	// of the core's own operation count, never of timing.
	prodTick map[int]uint64
	consTick map[int]uint64
}

// Port returns core's view of the array. The same SyncArray backs every
// port; per-core state is only the ticket counters.
func (sa *SyncArray) Port(core int) *SAPort {
	return &SAPort{
		sa:       sa,
		core:     core,
		prodTick: make(map[int]uint64),
		consTick: make(map[int]uint64),
	}
}

// Produce implements port.Stream. MPMC queues dispatch to the lane owning
// this producer's next ticket; others pass through unchanged.
func (p *SAPort) Produce(cycle uint64, q int, v uint64) (*port.Token, bool) {
	r, ok := p.sa.p.MPMC[q]
	if !ok || !r.IsMPMC() {
		return p.sa.Produce(cycle, q, v)
	}
	pIdx := r.ProducerIndex(p.core)
	if pIdx < 0 {
		panic(fmt.Sprintf("queue: core %d 'Produce q%d' but it is not a declared producer (route %v)", p.core, q, r.Producers))
	}
	n := p.prodTick[q]
	ticket := n*uint64(r.P()) + uint64(pIdx)
	lane := int(ticket % uint64(r.LaneCount()))
	tok, done := p.sa.Produce(cycle, p.sa.laneBase[q]+lane, v)
	if done {
		p.prodTick[q] = n + 1
	}
	return tok, done
}

// Consume implements port.Stream. MPMC queues dispatch to the lane owning
// this consumer's next ticket; others pass through unchanged.
func (p *SAPort) Consume(cycle uint64, q int) (*port.Token, bool) {
	r, ok := p.sa.p.MPMC[q]
	if !ok || !r.IsMPMC() {
		return p.sa.Consume(cycle, q)
	}
	cIdx := r.ConsumerIndex(p.core)
	if cIdx < 0 {
		panic(fmt.Sprintf("queue: core %d 'Consume q%d' but it is not a declared consumer (route %v)", p.core, q, r.Consumers))
	}
	n := p.consTick[q]
	ticket := n*uint64(r.C()) + uint64(cIdx)
	lane := int(ticket % uint64(r.LaneCount()))
	tok, done := p.sa.Consume(cycle, p.sa.laneBase[q]+lane)
	if done {
		p.consTick[q] = n + 1
	}
	return tok, done
}
