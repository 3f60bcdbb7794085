package serve

import (
	"encoding/json"
	"net/http"
	"time"
)

// Metrics is the /v1/metrics snapshot: request-plane counters, queue and
// cache state, and the simulated work served so far, aggregated from the
// same sim.Metrics-backed result fields (issue/stall cycle counters from
// the observability layer) that each response body reports per run.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	Workers       int     `json:"workers"`

	// Request-plane counters. Requests counts POST /v1/run and /v1/sweep
	// bodies read; Streams counts the ?stream=ndjson subset and Sweeps
	// the /v1/sweep subset; Runs counts simulations actually started
	// (cache hits and coalesced duplicates never start one).
	Requests         uint64 `json:"requests"`
	Streams          uint64 `json:"streams"`
	Sweeps           uint64 `json:"sweeps"`
	Runs             uint64 `json:"runs"`
	Failures         uint64 `json:"failures"`
	CacheHits        uint64 `json:"cache_hits"`
	CacheMisses      uint64 `json:"cache_misses"`
	PeerHits         uint64 `json:"peer_hits"`
	PeerMisses       uint64 `json:"peer_misses"`
	Coalesced        uint64 `json:"coalesced"`
	ShedQueueFull    uint64 `json:"shed_queue_full"`
	RejectedDraining uint64 `json:"rejected_draining"`
	// PeerPutRejected counts PUT /v1/peer bodies refused by the
	// integrity gate (digest mismatch, key↔spec mismatch, inconsistent
	// annotations) — each one is a poisoning attempt that never reached
	// the cache.
	PeerPutRejected uint64 `json:"peer_put_rejected"`

	// Queue state at snapshot time.
	InFlight   int `json:"in_flight"`
	Queued     int `json:"queued"`
	QueueDepth int `json:"queue_depth"`

	Cache struct {
		Entries     int    `json:"entries"`
		Bytes       int64  `json:"bytes"`
		BudgetBytes int64  `json:"budget_bytes"`
		Evictions   uint64 `json:"evictions"`
	} `json:"cache"`

	// Peer is the cluster cache tier snapshot; nil when this replica is
	// not clustered.
	Peer *PeerStats `json:"peer,omitempty"`

	// Simulated totals across every completed run: machine cycles,
	// issued instructions, and zero-issue (stall) cycles summed over
	// cores — the service-level rollup of the per-run stall attribution.
	Simulated struct {
		Cycles       uint64 `json:"cycles"`
		Instructions uint64 `json:"instructions"`
		StallCycles  uint64 `json:"stall_cycles"`
	} `json:"simulated"`
}

// Metrics snapshots the service counters.
func (s *Server) Metrics() Metrics {
	var m Metrics
	m.UptimeSeconds = time.Since(s.start).Seconds()
	m.Draining = s.draining.Load()
	m.Workers = s.cfg.Workers
	m.Requests = s.requests.Load()
	m.Streams = s.streams.Load()
	m.Sweeps = s.sweeps.Load()
	m.Runs = s.runs.Load()
	m.Failures = s.failures.Load()
	m.CacheHits = s.cacheHits.Load()
	m.CacheMisses = s.cacheMisses.Load()
	m.PeerHits = s.peerHits.Load()
	m.PeerMisses = s.peerMisses.Load()
	m.Coalesced = s.coalesced.Load()
	m.ShedQueueFull = s.shed.Load()
	m.RejectedDraining = s.rejected.Load()
	m.PeerPutRejected = s.peerPutBad.Load()
	m.InFlight = s.inFlight()
	m.Queued = s.pool.QueueLen()
	m.QueueDepth = s.cfg.QueueDepth
	m.Cache.Entries, m.Cache.Bytes, m.Cache.BudgetBytes, m.Cache.Evictions = s.cache.Stats()
	if s.peer != nil {
		ps := s.peer.Stats()
		m.Peer = &ps
	}
	m.Simulated.Cycles = s.simCycles.Load()
	m.Simulated.Instructions = s.simInstrs.Load()
	m.Simulated.StallCycles = s.simStalls.Load()
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeOutcome(w, "", errorOutcome(http.StatusMethodNotAllowed, codeBadRequest, "GET required", nil))
		return
	}
	buf, err := json.MarshalIndent(s.Metrics(), "", "  ")
	if err != nil {
		writeOutcome(w, "", errorOutcome(http.StatusInternalServerError, codeInternal, err.Error(), nil))
		return
	}
	writeOutcome(w, "", &outcome{status: http.StatusOK, body: append(buf, '\n'), ok: true})
}
