package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"hfstream/internal/sim"
)

// modelSum adds up the modelled machine's counters over one pass of a
// workload's cells and digests every cell's metrics snapshot. The
// simulator is deterministic, so two runs of one commit, and any commit
// that only changes the simulator's speed, must produce the same sums and
// the same digest.
type modelSum struct {
	counts map[string]float64
	cores  float64 // core-cycles, the weight of core.ipc
	occN   float64 // occupancy samples, the weight of queue.occ_mean
	digest [sha256.Size]byte
	cells  int
}

func newModelSum() *modelSum { return &modelSum{counts: make(map[string]float64)} }

func total(xs []uint64) float64 {
	var t float64
	for _, x := range xs {
		t += float64(x)
	}
	return t
}

// add folds one cell's snapshot in. body is the snapshot's MetricsJSON
// form, the bytes a client of the library or the service receives.
func (s *modelSum) add(m *sim.Metrics, body []byte) {
	c := s.counts
	c["sim.cycles"] += float64(m.Cycles)
	for _, cm := range m.Cores {
		c["core.issued"] += float64(cm.Issued)
		c["core.stall_cycles"] += float64(cm.StallCycles)
		for _, reason := range []string{"operand-latency", "memory-token", "queue-full", "queue-empty", "ozq-full"} {
			c["core.stall."+reason] += float64(cm.Stalls[reason])
		}
		c["queue.produces"] += float64(cm.Produces)
		c["queue.consumes"] += float64(cm.Consumes)
		s.cores += float64(cm.Cycles)
	}
	c["bus.grants"] += float64(m.Bus.Grants)
	c["bus.beats"] += float64(m.Bus.Beats)
	c["bus.arb_wait"] += float64(m.Bus.ArbWait)
	c["memsys.l2_hits"] += total(m.Memory.L2Hits)
	c["memsys.l2_misses"] += total(m.Memory.L2Misses)
	c["memsys.l3_hits"] += float64(m.Memory.L3Hits)
	c["memsys.l3_misses"] += float64(m.Memory.L3Misses)
	c["memsys.mem_accesses"] += float64(m.Memory.MemAccesses)
	c["memsys.wr_fwds"] += total(m.Streaming.WrFwds)
	c["memsys.probes"] += total(m.Streaming.Probes)
	c["memsys.sc_hits"] += total(m.Streaming.SCHits)
	c["memsys.recirc_retries"] += total(m.Streaming.RecircRetries)
	c["queue.sa_full_stalls"] += float64(m.Streaming.SAFullStalls)
	c["queue.sa_empty_stalls"] += float64(m.Streaming.SAEmptyStalls)
	// The snapshot keeps occupancy as a histogram of power-of-two buckets
	// ("0", "1", "2-3", ..., ">=32768"); the mean is taken over bucket floors.
	for _, b := range m.QueueOccupancy {
		lo, _ := strconv.ParseFloat(strings.TrimPrefix(strings.SplitN(b.Range, "-", 2)[0], ">="), 64)
		c["queue.occ_sum"] += lo * float64(b.Count)
		s.occN += float64(b.Count)
	}
	h := sha256.New()
	h.Write(s.digest[:])
	h.Write(body)
	copy(s.digest[:], h.Sum(nil))
	s.cells++
}

// addBody is add for a snapshot that exists only as bytes (a served body).
func (s *modelSum) addBody(body []byte) error {
	var m sim.Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		return fmt.Errorf("metrics body: %w", err)
	}
	s.add(&m, body)
	return nil
}

// into writes the sums under their catalog names.
func (s *modelSum) into(out map[string]float64) {
	for _, m := range modelCounts {
		out[m.Name] = s.counts[m.Name]
	}
	if s.cores > 0 {
		out["core.ipc"] = s.counts["core.issued"] / s.cores
	}
	if s.occN > 0 {
		out["queue.occ_mean"] = s.counts["queue.occ_sum"] / s.occN
	}
}

func (s *modelSum) digestHex() string { return hex.EncodeToString(s.digest[:]) }
