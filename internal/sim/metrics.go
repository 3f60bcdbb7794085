package sim

import (
	"encoding/json"

	"hfstream/internal/core"
	"hfstream/internal/stats"
)

// Metrics is the machine-readable snapshot of one run: IPC, instruction
// and communication counts, stall-cycle attribution by reason and by
// machine region, queue occupancy histograms, and the memory-system
// counters. It marshals deterministically (fixed field order, sorted
// maps), so CI can diff snapshots across commits byte for byte.
type Metrics struct {
	// Benchmark and Design are annotations filled in by the experiment
	// harness; the simulator itself does not know them.
	Benchmark string `json:"benchmark,omitempty"`
	Design    string `json:"design,omitempty"`

	Cycles         uint64 `json:"cycles"`
	UnquiescedExit bool   `json:"unquiesced_exit,omitempty"`

	Cores []CoreMetrics `json:"cores"`

	Bus       BusCounters       `json:"bus"`
	Memory    MemoryCounters    `json:"memory"`
	Streaming StreamingCounters `json:"streaming"`

	// QueueOccupancy is the per-cycle histogram of stream items in flight
	// end to end; SAOccupancy is the HEAVYWT dedicated-store histogram.
	QueueOccupancy []HistBucket `json:"queue_occupancy,omitempty"`
	SAOccupancy    []HistBucket `json:"sa_occupancy,omitempty"`
}

// BusCounters are the shared bus's totals over the run.
type BusCounters struct {
	Grants  uint64 `json:"grants"`
	Beats   uint64 `json:"beats"`
	ArbWait uint64 `json:"arb_wait"`
}

// MemoryCounters are the cache hierarchy's counters: per-core L2 hits and
// misses, then the shared L3 and main memory.
type MemoryCounters struct {
	L2Hits      []uint64 `json:"l2_hits"`
	L2Misses    []uint64 `json:"l2_misses"`
	L3Hits      uint64   `json:"l3_hits"`
	L3Misses    uint64   `json:"l3_misses"`
	MemAccesses uint64   `json:"mem_accesses"`
}

// StreamingCounters are the streaming machinery's counters: per-core
// forwards, bulk acks, probes, stream-cache hits and recirculation
// retries, then the HEAVYWT synchronization array's stalls (zero unless
// the design uses one).
type StreamingCounters struct {
	WrFwds        []uint64 `json:"wr_fwds,omitempty"`
	BulkAcks      []uint64 `json:"bulk_acks,omitempty"`
	Probes        []uint64 `json:"probes,omitempty"`
	SCHits        []uint64 `json:"sc_hits,omitempty"`
	RecircRetries []uint64 `json:"recirc_retries,omitempty"`
	SAFullStalls  uint64   `json:"sa_full_stalls,omitempty"`
	SAEmptyStalls uint64   `json:"sa_empty_stalls,omitempty"`
}

// CoreMetrics is one core's slice of the snapshot.
type CoreMetrics struct {
	IPC         float64 `json:"ipc"`
	Issued      uint64  `json:"issued"`
	IssuedComm  uint64  `json:"issued_comm"`
	CommRatio   float64 `json:"comm_ratio"`
	Cycles      uint64  `json:"cycles"`
	IssueCycles uint64  `json:"issue_cycles"`
	StallCycles uint64  `json:"stall_cycles"`
	Produces    uint64  `json:"produces,omitempty"`
	Consumes    uint64  `json:"consumes,omitempty"`
	// Stalls maps stall reason -> cycles (zero reasons omitted); values
	// sum to StallCycles.
	Stalls map[string]uint64 `json:"stalls,omitempty"`
	// Regions is the full execution-time breakdown by machine region;
	// StallRegions restricts it to zero-issue cycles.
	Regions      map[string]uint64 `json:"regions"`
	StallRegions map[string]uint64 `json:"stall_regions,omitempty"`
}

// HistBucket is one non-empty histogram bucket ("2-3" -> count).
type HistBucket struct {
	Range string `json:"range"`
	Count uint64 `json:"count"`
}

func histBuckets(h *stats.Hist) []HistBucket {
	var out []HistBucket
	for i, c := range h.Counts {
		if c > 0 {
			out = append(out, HistBucket{Range: stats.HistLabel(i), Count: c})
		}
	}
	return out
}

// Metrics builds the snapshot for this result.
func (r *Result) Metrics() *Metrics {
	m := &Metrics{Cycles: r.Cycles, UnquiescedExit: r.Diagnosis != nil}
	for i := range r.Cores {
		c := &r.Cores[i]
		cm := CoreMetrics{
			Issued:      c.Issued,
			IssuedComm:  c.IssuedComm,
			CommRatio:   c.CommRatio(),
			Cycles:      c.Cycles(),
			IssueCycles: c.IssueCycles,
			StallCycles: c.Stalls.Total(),
			Produces:    c.Produces,
			Consumes:    c.Consumes,
			Regions:     map[string]uint64{},
		}
		if cm.Cycles > 0 {
			cm.IPC = float64(c.Issued) / float64(cm.Cycles)
		}
		for reason := core.StallReason(1); reason < core.NumStallReasons; reason++ {
			if n := c.Stalls[reason]; n > 0 {
				if cm.Stalls == nil {
					cm.Stalls = map[string]uint64{}
				}
				cm.Stalls[reason.String()] = n
			}
		}
		bd := c.Breakdown()
		for b := stats.Bucket(0); b < stats.NumBuckets; b++ {
			cm.Regions[b.String()] = bd.Cycles[b]
			if n := c.StallRegions.Cycles[b]; n > 0 {
				if cm.StallRegions == nil {
					cm.StallRegions = map[string]uint64{}
				}
				cm.StallRegions[b.String()] = n
			}
		}
		m.Cores = append(m.Cores, cm)
	}
	m.Bus, m.Memory, m.Streaming = r.Bus, r.Memory, r.Streaming
	occ := r.QueueOcc
	m.QueueOccupancy = histBuckets(&occ)
	if r.SAOcc != nil {
		m.SAOccupancy = histBuckets(r.SAOcc)
	}
	return m
}

// MetricsJSON renders the snapshot as indented JSON with a trailing
// newline. The output is deterministic: the simulator is deterministic,
// struct fields marshal in declaration order, and Go sorts map keys.
func (r *Result) MetricsJSON() ([]byte, error) {
	return MetricsJSON(r.Metrics())
}

// MetricsJSON marshals an (optionally annotated) snapshot.
func MetricsJSON(m *Metrics) ([]byte, error) {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
