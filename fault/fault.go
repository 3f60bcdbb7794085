// Package fault provides deterministic, seeded fault injection for the
// simulator. A Plan is a schedule of injectable events; the simulator
// honours it through a per-run Injector threaded into the machine via
// sim.Config (public API: the WithFaults run option).
//
// Faults come in two classes with different contracts:
//
//   - Delay-class faults (BusDelay, ForwardDelay, RecircStorm, SAAckDelay)
//     are latency-only: they stretch an operation without losing or
//     reordering anything, so a run with only delay faults must still
//     complete with architectural results identical to its fault-free
//     twin. Delays are bounded (MaxDelay) well below the simulator's
//     watchdog window, so they can never be mistaken for a hang.
//
//   - Loss-class faults (ForwardDrop, StaleOccupancy, SACreditDrop,
//     SADataDrop) destroy protocol messages. They are sticky: once the
//     triggering occurrence is reached, every later message of that kind
//     on the affected queue is lost too — a severed link, not a glitch.
//     The simulator must *detect* the damage (deadlock watchdog or
//     unquiesced-exit diagnosis), never complete with silently wrong
//     results.
//
// Determinism: triggers count occurrences of machine operations (the Nth
// bus grant, the Nth forward delivery), not wall cycles, so a plan fires
// identically whether or not the kernel fast-forwards idle spans — idle
// cycles have no operations to count. The simulator is single-threaded
// per run; an Injector must not be shared across concurrent runs.
package fault

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
)

// Class separates latency-only faults from message-loss faults.
type Class int

// The fault classes.
const (
	// ClassDelay faults stretch latencies; runs still complete correctly.
	ClassDelay Class = iota
	// ClassLoss faults destroy messages; runs must end in typed detection.
	ClassLoss
)

// String names the class.
func (c Class) String() string {
	if c == ClassLoss {
		return "loss"
	}
	return "delay"
}

// Kind identifies one injectable fault type.
type Kind int

// The injectable fault kinds.
const (
	// BusDelay stretches the Nth bus grant's service latency by Delay
	// CPU cycles (a slow snoop or retried transaction).
	BusDelay Kind = iota
	// ForwardDelay postpones the Nth item-carrying stream-forward
	// delivery (write-forward or probe flush) by Delay cycles.
	ForwardDelay
	// RecircStorm forces the Nth OzQ resolution to recirculate Count
	// extra times through the port scheduler before resolving.
	RecircStorm
	// SAAckDelay postpones the Nth synchronization-array credit (ack)
	// delivery by Delay cycles.
	SAAckDelay
	// ForwardDrop severs the stream-forward path of the queue whose
	// Nth item-carrying delivery triggers it: that delivery and all
	// later ones for the queue are lost (occupancy never advances).
	ForwardDrop
	// StaleOccupancy swallows the bulk-ACK stream of the queue whose
	// Nth ack delivery triggers it: the producer's occupancy view goes
	// permanently stale.
	StaleOccupancy
	// SACreditDrop severs the synchronization-array credit return path
	// of the queue whose Nth credit delivery triggers it.
	SACreditDrop
	// SADataDrop severs the synchronization-array data path of the queue
	// whose Nth data delivery triggers it (items vanish in flight).
	SADataDrop
	numKinds
)

// kindNames maps kinds to their stable wire names.
var kindNames = [numKinds]string{
	"bus-delay", "forward-delay", "recirc-storm", "sa-ack-delay",
	"forward-drop", "stale-occupancy", "sa-credit-drop", "sa-data-drop",
}

// String names the kind.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Class returns the kind's fault class.
func (k Kind) Class() Class {
	switch k {
	case ForwardDrop, StaleOccupancy, SACreditDrop, SADataDrop:
		return ClassLoss
	}
	return ClassDelay
}

// MarshalJSON encodes the kind by its stable name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a kind from its stable name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("fault: unknown kind %q", s)
}

// MaxDelay bounds every delay-class stretch, keeping injected latency far
// below the simulator's default watchdog window so delay faults can never
// masquerade as hangs.
const MaxDelay = 600

// MaxStorm bounds RecircStorm's extra recirculation count.
const MaxStorm = 16

// Event is one scheduled fault.
type Event struct {
	Kind Kind `json:"kind"`
	// Nth is the 1-based occurrence of the kind's trigger operation at
	// which the event fires. Occurrences are counted machine-wide at the
	// kind's injection site.
	Nth uint64 `json:"nth"`
	// Delay is the latency stretch in cycles (delay-class kinds except
	// RecircStorm).
	Delay uint64 `json:"delay,omitempty"`
	// Count is the number of extra recirculations (RecircStorm).
	Count uint64 `json:"count,omitempty"`
}

// Validate checks one event.
func (e Event) Validate() error {
	if e.Kind < 0 || e.Kind >= numKinds {
		return fmt.Errorf("fault: unknown kind %d", int(e.Kind))
	}
	if e.Nth < 1 {
		return fmt.Errorf("fault: %s: Nth must be >= 1, got %d", e.Kind, e.Nth)
	}
	switch e.Kind {
	case BusDelay, ForwardDelay, SAAckDelay:
		if e.Delay < 1 || e.Delay > MaxDelay {
			return fmt.Errorf("fault: %s: delay %d outside [1, %d]", e.Kind, e.Delay, MaxDelay)
		}
	case RecircStorm:
		if e.Count < 1 || e.Count > MaxStorm {
			return fmt.Errorf("fault: %s: count %d outside [1, %d]", e.Kind, e.Count, MaxStorm)
		}
	default: // loss-class events carry no parameters
		if e.Delay != 0 || e.Count != 0 {
			return fmt.Errorf("fault: %s: loss-class events take no delay/count", e.Kind)
		}
	}
	return nil
}

// Plan is a reproducible schedule of fault events.
type Plan struct {
	// Seed records how the plan was generated (provenance only; replaying
	// a plan uses its Events, not the seed).
	Seed int64 `json:"seed,omitempty"`
	// Events are the scheduled faults.
	Events []Event `json:"events"`
}

// Validate checks every event.
func (p Plan) Validate() error {
	for i, e := range p.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// HasLoss reports whether the plan contains any loss-class event.
func (p Plan) HasLoss() bool {
	for _, e := range p.Events {
		if e.Kind.Class() == ClassLoss {
			return true
		}
	}
	return false
}

// Class returns ClassLoss if any event is loss-class, else ClassDelay.
func (p Plan) Class() Class {
	if p.HasLoss() {
		return ClassLoss
	}
	return ClassDelay
}

// String renders the plan compactly, e.g.
// "seed=7[bus-delay@3+120 forward-drop@2]".
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d[", p.Seed)
	for i, e := range p.Events {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s@%d", e.Kind, e.Nth)
		if e.Delay > 0 {
			fmt.Fprintf(&b, "+%d", e.Delay)
		}
		if e.Count > 0 {
			fmt.Fprintf(&b, "x%d", e.Count)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// delayKinds are the candidates RandomDelay draws from.
var delayKinds = []Kind{BusDelay, ForwardDelay, RecircStorm, SAAckDelay}

// lossKinds are the candidates RandomLoss draws from.
var lossKinds = []Kind{ForwardDrop, StaleOccupancy, SACreditDrop, SADataDrop}

// RandomDelay returns a seeded plan of n delay-class events. The same
// seed always yields the same plan.
func RandomDelay(seed int64, n int) Plan {
	rng := rand.New(rand.NewSource(seed))
	p := Plan{Seed: seed}
	for i := 0; i < n; i++ {
		k := delayKinds[rng.Intn(len(delayKinds))]
		e := Event{Kind: k}
		switch k {
		case RecircStorm:
			// Resolutions are frequent; spread triggers across the run.
			e.Nth = 1 + uint64(rng.Intn(400))
			e.Count = 1 + uint64(rng.Intn(MaxStorm))
		case BusDelay:
			e.Nth = 1 + uint64(rng.Intn(200))
			e.Delay = 1 + uint64(rng.Intn(MaxDelay))
		default: // forward / credit deliveries are rarer events
			e.Nth = 1 + uint64(rng.Intn(6))
			e.Delay = 1 + uint64(rng.Intn(MaxDelay))
		}
		p.Events = append(p.Events, e)
	}
	return p
}

// RandomLoss returns a seeded plan with exactly one loss-class event,
// triggered early (small Nth) so the severed link has work left to lose.
func RandomLoss(seed int64) Plan {
	rng := rand.New(rand.NewSource(seed))
	return Plan{Seed: seed, Events: []Event{{
		Kind: lossKinds[rng.Intn(len(lossKinds))],
		Nth:  1 + uint64(rng.Intn(3)),
	}}}
}

// Shot records one fired fault.
type Shot struct {
	Kind  Kind   `json:"kind"`
	Cycle uint64 `json:"cycle"`
	// Queue is the affected stream queue (-1 when not queue-specific).
	Queue int    `json:"queue"`
	Delay uint64 `json:"delay,omitempty"`
	Count uint64 `json:"count,omitempty"`
}

// String renders the shot, e.g. "forward-drop@cycle 1042 q3".
func (s Shot) String() string {
	out := fmt.Sprintf("%s@cycle %d", s.Kind, s.Cycle)
	if s.Queue >= 0 {
		out += fmt.Sprintf(" q%d", s.Queue)
	}
	if s.Delay > 0 {
		out += fmt.Sprintf(" +%d cycles", s.Delay)
	}
	if s.Count > 0 {
		out += fmt.Sprintf(" x%d recirc", s.Count)
	}
	return out
}

// injection sites: each fault kind triggers on occurrences of one machine
// operation; kinds sharing an operation share its counter.
const (
	siteBus     = iota // bus grants
	siteForward        // item-carrying stream-forward/probe-flush deliveries
	siteAck            // bulk-ACK deliveries
	siteCredit         // synchronization-array credit deliveries
	siteData           // synchronization-array data deliveries
	siteRecirc         // OzQ resolutions
	numSites
)

func site(k Kind) int {
	switch k {
	case BusDelay:
		return siteBus
	case ForwardDelay, ForwardDrop:
		return siteForward
	case StaleOccupancy:
		return siteAck
	case SAAckDelay, SACreditDrop:
		return siteCredit
	case SADataDrop:
		return siteData
	default:
		return siteRecirc
	}
}

// Injector is the per-run live state of a Plan: occurrence counters,
// sticky severed-queue sets, and the log of fired shots. All methods are
// safe on a nil receiver (no faults). An Injector belongs to exactly one
// run; create a fresh one per simulation with Plan.Injector.
type Injector struct {
	plan    Plan
	pending []Event // not yet fired
	counts  [numSites]uint64

	// cut[k] is the set of queues a fired loss event of kind k severed.
	cut [numKinds]map[int]bool

	shots     []Shot
	lossFired bool
}

// Injector builds the per-run injector for the plan.
func (p Plan) Injector() *Injector {
	return &Injector{plan: p, pending: append([]Event(nil), p.Events...)}
}

// Plan returns the plan the injector was built from.
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// fate decides one operation at site s for queue q (-1: the site is not
// per-queue). loss is the site's loss kind; a site that has none passes
// its delay kind, which no event ever severs. A queue already severed
// keeps dropping, and that repeat drop is logged but is not an occurrence.
// Otherwise the operation is counted and the first pending event at the
// site whose Nth it is fires, whichever of the site's kinds it has: a
// loss event severs q from now on, a delay event returns its stretch.
func (in *Injector) fate(s int, loss Kind, cycle uint64, q int) (drop bool, delay, count uint64) {
	if in.cut[loss][q] {
		in.shots = append(in.shots, Shot{Kind: loss, Cycle: cycle, Queue: q})
		return true, 0, 0
	}
	in.counts[s]++
	for i, e := range in.pending {
		if site(e.Kind) != s || e.Nth != in.counts[s] {
			continue
		}
		in.pending = append(in.pending[:i], in.pending[i+1:]...)
		in.shots = append(in.shots, Shot{Kind: e.Kind, Cycle: cycle, Queue: q, Delay: e.Delay, Count: e.Count})
		if e.Kind.Class() == ClassLoss {
			in.lossFired = true
			if in.cut[e.Kind] == nil {
				in.cut[e.Kind] = map[int]bool{}
			}
			in.cut[e.Kind][q] = true
			return true, 0, 0
		}
		return false, e.Delay, e.Count
	}
	return false, 0, 0
}

// BusDelay counts one bus grant and returns the extra service latency to
// apply (0 when no event fires).
func (in *Injector) BusDelay(cycle uint64) uint64 {
	if in == nil {
		return 0
	}
	_, delay, _ := in.fate(siteBus, BusDelay, cycle, -1)
	return delay
}

// ForwardFate counts one item-carrying stream-forward delivery for queue
// q. A previously severed queue keeps dropping; otherwise a triggering
// ForwardDrop severs the queue and a ForwardDelay stretches the delivery.
func (in *Injector) ForwardFate(cycle uint64, q int) (drop bool, delay uint64) {
	if in == nil {
		return false, 0
	}
	drop, delay, _ = in.fate(siteForward, ForwardDrop, cycle, q)
	return drop, delay
}

// AckSwallowed counts one bulk-ACK delivery for queue q and reports
// whether it (and, once severed, every later ack for q) is swallowed.
func (in *Injector) AckSwallowed(cycle uint64, q int) bool {
	if in == nil {
		return false
	}
	drop, _, _ := in.fate(siteAck, StaleOccupancy, cycle, q)
	return drop
}

// CreditFate counts one synchronization-array credit delivery for queue
// q: severed queues drop the credit, SAAckDelay stretches it.
func (in *Injector) CreditFate(cycle uint64, q int) (drop bool, delay uint64) {
	if in == nil {
		return false, 0
	}
	drop, delay, _ = in.fate(siteCredit, SACreditDrop, cycle, q)
	return drop, delay
}

// DataDropped counts one synchronization-array data delivery for queue q
// and reports whether the item is lost (SADataDrop severs the queue).
func (in *Injector) DataDropped(cycle uint64, q int) bool {
	if in == nil {
		return false
	}
	drop, _, _ := in.fate(siteData, SADataDrop, cycle, q)
	return drop
}

// RecircStorm counts one OzQ resolution and returns the number of extra
// recirculations to force (0 when no event fires).
func (in *Injector) RecircStorm(cycle uint64) uint64 {
	if in == nil {
		return 0
	}
	_, _, count := in.fate(siteRecirc, RecircStorm, cycle, -1)
	return count
}

// Fired reports whether any event has fired.
func (in *Injector) Fired() bool { return in != nil && len(in.shots) > 0 }

// LossFired reports whether a loss-class event has fired: the run must
// now end in typed detection, never a silently wrong result.
func (in *Injector) LossFired() bool { return in != nil && in.lossFired }

// Shots returns the log of fired faults in firing order. Sticky drops
// log one shot per destroyed message.
func (in *Injector) Shots() []Shot {
	if in == nil {
		return nil
	}
	return in.shots
}

// ShotStrings renders the shot log (nil when nothing fired).
func (in *Injector) ShotStrings() []string {
	if in == nil || len(in.shots) == 0 {
		return nil
	}
	out := make([]string, len(in.shots))
	for i, s := range in.shots {
		out[i] = s.String()
	}
	return out
}
