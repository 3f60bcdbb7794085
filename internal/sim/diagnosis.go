package sim

import (
	"encoding/json"
	"fmt"
	"strings"

	"hfstream/internal/bus"
	"hfstream/internal/core"
	"hfstream/internal/memsys"
	"hfstream/internal/queue"
	"hfstream/trace"
)

// Diagnosis is a structured snapshot of the machine at the moment a run
// failed to make progress: the watchdog fired, the cycle budget ran out,
// or the cores halted but the fabric never quiesced. It is attached to
// DeadlockError (and to Result on an unquiesced exit), rendered by the
// CLIs, and serializable to deterministic JSON via DiagnosisJSON.
type Diagnosis struct {
	// Reason says why the snapshot was taken ("watchdog", "cycle budget
	// exhausted", "cores done but fabric never quiesced").
	Reason string `json:"reason"`
	// Cycle is the cycle the condition was detected.
	Cycle uint64 `json:"cycle"`
	// LastProgress is the last cycle any core issued an instruction.
	LastProgress uint64 `json:"last_progress"`
	// WatchdogIdle is the configured idle window.
	WatchdogIdle uint64 `json:"watchdog_idle"`

	Cores []CoreDiag   `json:"cores"`
	Bus   bus.Snapshot `json:"bus"`
	// SA is the synchronization-array state (HEAVYWT designs only).
	SA *queue.SASnapshot `json:"sync_array,omitempty"`

	// FaultShots lists the injected faults that fired before the failure
	// (empty without fault injection) — the first thing to read when a
	// chaos run deadlocks.
	FaultShots []string `json:"fault_shots,omitempty"`
	// Events holds the last events of the trace ring, newest last (only
	// when the run traced).
	Events []string `json:"recent_events,omitempty"`
}

// CoreDiag describes one core and, through the embedded snapshot, its L2
// controller.
type CoreDiag struct {
	Core   int    `json:"core"`
	Halted bool   `json:"halted"`
	PC     int    `json:"pc"`
	Stall  string `json:"stall"`
	Issued uint64 `json:"issued"`
	memsys.Snapshot
}

// diagEventCap bounds the number of trace-ring events a Diagnosis keeps.
const diagEventCap = 32

// diagnose snapshots the machine. sa and the trace buffer may be nil.
func diagnose(reason string, cycle, lastProgress, watchdog uint64,
	cores []*core.Core, fab *memsys.Fabric, sa *queue.SyncArray, cfg *Config) *Diagnosis {
	d := &Diagnosis{
		Reason:       reason,
		Cycle:        cycle,
		LastProgress: lastProgress,
		WatchdogIdle: watchdog,
	}
	for _, c := range cores {
		d.Cores = append(d.Cores, CoreDiag{
			Core:     c.ID(),
			Halted:   c.Halted(),
			PC:       c.PC(),
			Stall:    c.LastStall.String(),
			Issued:   c.Issued,
			Snapshot: fab.Controller(c.ID()).Snapshot(),
		})
	}
	d.Bus = fab.Bus().Snapshot()
	if sa != nil {
		snap := sa.Snapshot()
		d.SA = &snap
	}
	if cfg != nil {
		d.FaultShots = cfg.Faults.ShotStrings()
		if cfg.Trace != nil {
			evs := cfg.Trace.Events()
			if len(evs) > diagEventCap {
				evs = evs[len(evs)-diagEventCap:]
			}
			for _, ev := range evs {
				d.Events = append(d.Events, formatTraceEvent(ev))
			}
		}
	}
	return d
}

func formatTraceEvent(ev trace.Event) string {
	s := fmt.Sprintf("cycle %d: %s core=%d", ev.Cycle, ev.Kind, ev.Core)
	if ev.PC >= 0 {
		s += fmt.Sprintf(" pc=%d", ev.PC)
	}
	if ev.Q >= 0 {
		s += fmt.Sprintf(" q=%d", ev.Q)
	}
	if ev.Op != "" {
		s += " " + ev.Op
	}
	if ev.Dur > 1 {
		s += fmt.Sprintf(" dur=%d", ev.Dur)
	}
	return s
}

// String renders the diagnosis for humans, one indented block per core.
func (d *Diagnosis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (cycle %d, last progress at cycle %d, watchdog window %d)\n",
		d.Reason, d.Cycle, d.LastProgress, d.WatchdogIdle)
	for _, c := range d.Cores {
		fmt.Fprintf(&b, "  core %d: halted=%v pc=%d stall=%s issued=%d\n",
			c.Core, c.Halted, c.PC, c.Stall, c.Issued)
		fmt.Fprintf(&b, "    ctrl: ozq=%d pendingLines=%d events=%d\n",
			len(c.OzQ), c.PendingLines, c.PendingEvents)
		for _, e := range c.OzQ {
			fmt.Fprintf(&b, "    ozq %s state=%s addr=%s q=%d slot=%d readyAt=%d",
				e.Kind, e.State, e.Addr, e.Q, e.Slot, e.ReadyAt)
			if e.TimeoutAt > 0 {
				fmt.Fprintf(&b, " timeoutAt=%d", e.TimeoutAt)
			}
			b.WriteByte('\n')
		}
		for _, q := range c.Queues {
			fmt.Fprintf(&b, "    q%d: sent=%d done=%d acked=%d fwd=%d | consIssue=%d avail=%d consumed=%d",
				q.Q, q.SentCum, q.DoneCum, q.AckedCum, q.ForwardedCum,
				q.ConsumeCum, q.AvailCum, q.ConsumedCum)
			if q.ProbeOut {
				b.WriteString(" probeOut")
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "  bus: addrFree=%d dataFree=%d pending=%d\n",
		d.Bus.AddrFree, d.Bus.DataFree, len(d.Bus.Pending))
	for _, r := range d.Bus.Pending {
		fmt.Fprintf(&b, "    %s addr=%s src=%d q=%d submitted=%d\n",
			r.Kind, r.Addr, r.Src, r.Q, r.SubmitAt)
	}
	if d.SA != nil {
		fmt.Fprintf(&b, "  sync array: inflight=%d pendingCredits=%d pendingData=%d\n",
			d.SA.InFlight, d.SA.PendingCredits, d.SA.PendingData)
		for _, q := range d.SA.Queues {
			fmt.Fprintf(&b, "    q%d: occupancy=%d outstanding=%d\n", q.Q, q.Occupancy, q.Outstanding)
		}
	}
	if len(d.FaultShots) > 0 {
		fmt.Fprintf(&b, "  fault shots (%d):\n", len(d.FaultShots))
		for _, s := range d.FaultShots {
			fmt.Fprintf(&b, "    %s\n", s)
		}
	}
	if len(d.Events) > 0 {
		fmt.Fprintf(&b, "  recent events (%d):\n", len(d.Events))
		for _, s := range d.Events {
			fmt.Fprintf(&b, "    %s\n", s)
		}
	}
	return b.String()
}

// DiagnosisJSON serializes a diagnosis deterministically: two-space
// indentation, fixed field order, trailing newline (the same convention
// as MetricsJSON, so goldens are stable byte-for-byte).
func DiagnosisJSON(d *Diagnosis) ([]byte, error) {
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
