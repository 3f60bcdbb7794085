// Package port defines the narrow interfaces between the core model and
// the memory/streaming subsystems, plus the completion token used to track
// in-flight operations and attribute stall cycles to machine regions.
package port

import (
	"math"

	"hfstream/internal/stats"
)

// Pending is the DoneAt value of a token that has not completed.
const Pending = math.MaxUint64

// Token tracks one in-flight memory or streaming operation. The owner
// (memory controller, synchronization array, ...) sets Value and DoneAt on
// completion and keeps Loc updated with the machine region the operation is
// currently waiting in, so a core stalled on the token can attribute the
// cycle correctly.
type Token struct {
	// DoneAt is the cycle at which the result became architecturally
	// available, or Pending.
	DoneAt uint64
	// Value is the load/consume result (undefined for stores/fences).
	Value uint64
	// Loc is the breakdown bucket describing where the operation currently
	// waits.
	Loc stats.Bucket
	// Due, when non-nil, points at the tracking core's earliest-completion
	// cache; Complete lowers it so the core can skip its per-cycle token
	// scans until something is actually due.
	Due *uint64
}

// NewToken returns a pending token located in the given bucket.
func NewToken(loc stats.Bucket) *Token {
	return &Token{DoneAt: Pending, Loc: loc}
}

// Done reports whether the token completed at or before cycle.
func (t *Token) Done(cycle uint64) bool { return t.DoneAt != Pending && t.DoneAt <= cycle }

// Complete marks the token done at the given cycle with the given value,
// notifying the tracking core's earliest-completion cache when one is
// attached.
func (t *Token) Complete(cycle, value uint64) {
	t.DoneAt = cycle
	t.Value = value
	if t.Due != nil && cycle < *t.Due {
		*t.Due = cycle
	}
}

// Mem is the load/store/fence interface offered by a core's memory
// subsystem (L1 + L2 controller + shared fabric).
type Mem interface {
	// CanAccept reports whether a new memory operation can be accepted this
	// cycle (i.e. the L2 controller's OzQ has a free slot).
	CanAccept() bool
	// Load starts a load of the 8-byte word at addr.
	Load(cycle, addr uint64) *Token
	// Store starts a store of val to the 8-byte word at addr.
	Store(cycle, addr, val uint64) *Token
	// Fence starts a full memory barrier; it completes when all prior
	// operations from this core have completed, and no later memory
	// operation may access the L2 before it completes.
	Fence(cycle uint64) *Token
}

// Stream is the produce/consume interface. Implementations differ per
// design point: SYNCOPTI routes through the L2 controller, HEAVYWT through
// the synchronization array. ok=false means the operation could not even
// be accepted this cycle (e.g. the HEAVYWT pipeline blocks on a full
// queue); the core must stall and retry.
type Stream interface {
	Produce(cycle uint64, q int, v uint64) (tok *Token, ok bool)
	Consume(cycle uint64, q int) (tok *Token, ok bool)
}

// Refuser is implemented by a Mem or Stream port that can say whether an
// operation it just refused would be refused again. Called right after the
// refusal, before any other component acts, Refusal reports:
//
//   - sticky: an identical attempt is refused, with no side effect but
//     bumping *count, for as long as *epoch holds still;
//   - count: the counter one more identical refusal would bump (nil for
//     none).
//
// A core stalled on a sticky refusal may charge the stall instead of
// retrying (see core.Core.Replay). Ports that do not implement Refuser are
// always retried.
type Refuser interface {
	Refusal() (epoch, count *uint64, sticky bool)
}
