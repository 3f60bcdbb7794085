package memsys

import (
	"fmt"

	"hfstream/fault"
	"hfstream/internal/bus"
	"hfstream/internal/cache"
	"hfstream/internal/mem"
	"hfstream/internal/port"
)

// Fabric owns the shared part of the memory subsystem: the split-
// transaction bus, the shared L3, main memory timing, and the per-core L2
// controllers. It acts as the snoop broker: coherence state changes are
// applied atomically at bus-grant time (the address/snoop phase), while
// data availability follows the bus's data-phase timing.
type Fabric struct {
	p     Params
	mem   *mem.Memory
	bus   *bus.Bus
	l3    *cache.Cache
	ctrls []*Controller

	// faults, when non-nil, injects deterministic faults into the
	// streaming protocol paths (see package fault).
	faults *fault.Injector

	// tokens is the run-scoped token arena shared by the controllers (and,
	// when the sim kernel wires it through, the cores and sync array).
	tokens *port.TokenPool

	// Stats.
	MemAccesses uint64
	L3Hits      uint64
	L3Misses    uint64
}

// NewFabric builds the memory subsystem for n cores.
func NewFabric(p Params, m *mem.Memory, n int) (*Fabric, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("memsys: need at least one core, got %d", n)
	}
	f := &Fabric{p: p, mem: m, l3: cache.New(p.L3), tokens: port.NewTokenPool()}
	f.bus = bus.New(p.Bus, n, f.handle)
	for i := 0; i < n; i++ {
		f.ctrls = append(f.ctrls, newController(i, p, f))
	}
	return f, nil
}

// Release hands the fabric's cache arrays back for the next fabric to
// reuse (see cache.Release); the fabric and its controllers must not be
// used afterwards.
func (f *Fabric) Release() {
	f.l3.Release()
	for _, c := range f.ctrls {
		c.l1.Release()
		c.l2.Release()
	}
}

// SetFaults installs a fault injector on the fabric and its bus. Call
// before the first Tick; a nil injector disables injection.
func (f *Fabric) SetFaults(in *fault.Injector) {
	f.faults = in
	f.bus.Faults = in
}

// Controller returns core i's L2 controller.
func (f *Fabric) Controller(i int) *Controller { return f.ctrls[i] }

// Bus returns the shared bus (for stats).
func (f *Fabric) Bus() *bus.Bus { return f.bus }

// L3 returns the shared L3 array (for stats and tests).
func (f *Fabric) L3() *cache.Cache { return f.l3 }

// Mem returns the functional memory image.
func (f *Fabric) Mem() *mem.Memory { return f.mem }

// Tokens returns the run-scoped token arena so the sim kernel can share
// it with the cores and the sync array.
func (f *Fabric) Tokens() *port.TokenPool { return f.tokens }

// PreloadRange installs n consecutive lines starting at base into the
// shared L3 and, in shared state, into every private L2. It warms the
// hierarchy before measurement so results reflect the paper's steady-state
// hot loops; regions larger than a cache wrap its LRU state and keep their
// natural miss behaviour, so the bulk insert skips straight to the tail
// that survives (each cache keeps its own LRU clock, so the per-line
// interleaving across caches is immaterial). The lines must not already be
// present anywhere (preload runs before the first access).
func (f *Fabric) PreloadRange(base uint64, n int) {
	f.l3.InsertRange(base, n, cache.Shared)
	for _, c := range f.ctrls {
		c.l2.InsertRange(base, n, cache.Shared)
	}
}

// Tick is TickDue with force set. Nothing in this module calls it; it
// stays because the frozen bench/spine probe memsys.fabric_tick_idle_ns
// does.
func (f *Fabric) Tick(cycle uint64) { f.TickDue(cycle, true) }

// TickDue advances only the components whose cached wake time says they
// can do work this cycle. With force set, everything ticks (the referee
// mode the fast-forward goldens are checked against).
func (f *Fabric) TickDue(cycle uint64, force bool) {
	if force || f.bus.WakeAt() <= cycle {
		f.bus.Tick(cycle)
	}
	for _, c := range f.ctrls {
		if force || c.WakeAt() <= cycle {
			c.Tick(cycle)
		}
	}
}

// NextWake returns the earliest future cycle at which any part of the
// memory subsystem can change state without a new request from a core:
// the bus's next grant/drain cycle or any controller's next event, retry,
// or probe timeout. Returns ^uint64(0) when the whole fabric is dormant.
func (f *Fabric) NextWake(cycle uint64) uint64 {
	// The cached per-controller wakes are exact after this cycle's TickDue
	// (a ticked controller just recomputed; an unticked one had nothing to
	// do and every work-creating mutation lowers the cache), so no rescans.
	w := f.bus.NextWake(cycle)
	for _, c := range f.ctrls {
		if c.wakeAt < w {
			w = c.wakeAt
		}
	}
	return w
}

// Quiesced reports whether no transaction is in flight anywhere.
func (f *Fabric) Quiesced(cycle uint64) bool {
	if !f.bus.Idle(cycle) {
		return false
	}
	for _, c := range f.ctrls {
		if !c.Quiesced() {
			return false
		}
	}
	return true
}

func (f *Fabric) submit(cycle uint64, r *bus.Req) { f.bus.Submit(cycle, r) }

// other returns the peer controller in the dual-core configuration.
func (f *Fabric) other(id int) *Controller {
	if len(f.ctrls) != 2 {
		panic("memsys: implicit peer requires the dual-core configuration (set QueueRoutes)")
	}
	return f.ctrls[1-id]
}

// consumerOf returns the controller consuming queue q (messages from the
// producer side: write-forwards).
func (f *Fabric) consumerOf(q, fromID int) *Controller {
	if q < len(f.p.QueueRoutes) {
		return f.ctrls[f.p.QueueRoutes[q].Consumer]
	}
	return f.other(fromID)
}

// producerOf returns the controller producing queue q (messages from the
// consumer side: bulk ACKs and probes).
func (f *Fabric) producerOf(q, fromID int) *Controller {
	if q < len(f.p.QueueRoutes) {
		return f.ctrls[f.p.QueueRoutes[q].Producer]
	}
	return f.other(fromID)
}

// writeback pushes an evicted dirty line to the L3 over the bus.
func (f *Fabric) writeback(cycle uint64, src int, addr uint64) {
	c := f.ctrls[src]
	req := c.newReq()
	req.Kind, req.Addr, req.Src, req.Owner = bus.Writeback, addr, src, c
	f.submit(cycle, req)
}

// handle is the bus grant handler: it performs the snoop, applies
// coherence state transitions, decides the supplier, and returns the
// service latency plus data-phase occupancy.
func (f *Fabric) handle(r *bus.Req, grantCycle uint64) (serviceLat, beats int) {
	lineBytes := f.p.L2.LineBytes
	fullBeats := f.bus.BeatsForBytes(lineBytes)
	slotBytes := f.p.Layout.SlotBytes()

	switch r.Kind {
	case bus.Read, bus.ReadX:
		remoteM := false
		for i, c := range f.ctrls {
			if i == r.Src {
				continue
			}
			line := c.l2.Peek(r.Addr)
			if line == nil {
				continue
			}
			if line.State == cache.Modified {
				remoteM = true
				// The dirty line also lands in the L3 (folded into the
				// cache-to-cache transfer).
				f.l3.Insert(r.Addr, cache.Shared)
			}
			if r.Kind == bus.ReadX {
				c.invalidateLine(r.Addr)
			} else if line.State == cache.Modified {
				c.downgradeLine(r.Addr)
			}
		}
		st := cache.Shared
		if r.Kind == bus.ReadX {
			st = cache.Modified
		}
		f.ctrls[r.Src].install(grantCycle, r.Addr, st)
		if remoteM {
			r.Owner.ReqNote(r, bus.SupplierRemoteL2)
			return f.p.L2.Latency, fullBeats
		}
		if f.l3.Lookup(r.Addr) != nil {
			f.L3Hits++
			r.Owner.ReqNote(r, bus.SupplierL3)
			return f.p.L3.Latency, fullBeats
		}
		f.L3Misses++
		f.MemAccesses++
		f.l3.Insert(r.Addr, cache.Shared)
		r.Owner.ReqNote(r, bus.SupplierMem)
		return f.p.L3.Latency + f.p.MemLat, fullBeats

	case bus.Upgrade:
		for i, c := range f.ctrls {
			if i != r.Src {
				c.invalidateLine(r.Addr)
			}
		}
		if line := f.ctrls[r.Src].l2.Peek(r.Addr); line != nil {
			line.State = cache.Modified
		}
		return 0, 0

	case bus.Writeback:
		f.l3.Insert(r.Addr, cache.Shared)
		return 0, fullBeats

	case bus.WriteForward:
		// Producer keeps a shared copy; the L3 also captures the line so
		// a consumer-side eviction does not force a memory round trip.
		f.ctrls[r.Src].downgradeLine(r.Addr)
		f.l3.Insert(r.Addr, cache.Shared)
		n := r.Aux * slotBytes
		if n <= 0 || n > lineBytes {
			n = lineBytes
		}
		return f.p.L2.Latency, f.bus.BeatsForBytes(n)

	case bus.BulkAck:
		return 0, 1

	case bus.Probe:
		prod := f.producerOf(r.Q, r.Src)
		start, count := prod.flushForProbe(r.Q)
		r.Slot, r.Aux = start, count
		n := count * slotBytes
		if n < 1 {
			return f.p.L2.Latency, 1
		}
		return f.p.L2.Latency, f.bus.BeatsForBytes(n)
	}
	return 0, 0
}
