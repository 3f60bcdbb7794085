package hfstream

import (
	"hfstream/internal/exp"
	"hfstream/internal/sim"
)

// The simulator's typed failure modes, re-exported so callers can
// errors.As against them without importing internal packages.
type (
	// DeadlockError reports a run that stopped making progress (queue or
	// coherence deadlock, or an exhausted cycle budget). Its Diag field
	// carries the structured machine snapshot taken at detection time.
	DeadlockError = sim.DeadlockError
	// CanceledError reports a run aborted through its context before
	// completion.
	CanceledError = sim.CanceledError
	// ValidationError reports a configuration or program the simulator
	// rejected before running a single cycle.
	ValidationError = sim.ValidationError
	// MPMCUnsupportedError reports custom programs whose queue topology
	// puts more than one producer or consumer on a queue, run on a design
	// point that cannot serve such queues (see Design.SupportsMPMC). Queues
	// lists the offending queue IDs in ascending order.
	MPMCUnsupportedError = exp.MPMCUnsupportedError
)

// Diagnosis is the structured machine snapshot attached to DeadlockError
// and to unquiesced results: per-core stall reason and PC, OzQ and stream
// queue state, in-flight bus transactions, synchronization-array
// occupancy, fired fault shots, and recent trace events.
type Diagnosis = sim.Diagnosis

// DiagnosisJSON serializes a diagnosis deterministically (two-space
// indentation, fixed field order, trailing newline) for golden tests and
// the CLIs' -diagnose flag.
func DiagnosisJSON(d *Diagnosis) ([]byte, error) { return sim.DiagnosisJSON(d) }
