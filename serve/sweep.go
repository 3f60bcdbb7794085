package serve

// POST /sweep: a batch endpoint for the service's core use case —
// sweeping a (benchmarks × designs × options) grid. The grid expands
// into per-cell Specs, each cell is content-addressed exactly like a
// /run request (same cache, same singleflight group, same pool), and
// cell results stream back as NDJSON metrics/error events in completion
// order, closing with a done event that tallies the sweep.
//
// Because cells share the /run cache keys, a re-submitted sweep only
// simulates the cache misses, concurrent sweeps sharing cells coalesce
// onto one run per cell, and a sweep's cells are interchangeable with
// individual /run requests — byte for byte, which the differential
// battery asserts.

import (
	"context"
	"fmt"
	"net/http"

	"hfstream"
)

// maxSweepCells bounds one sweep's expanded grid; a larger request is
// rejected up front rather than half-streamed.
const maxSweepCells = 4096

// SweepRequest is the /sweep body: the grid axes. "*" in Benches or
// Designs expands to every registered benchmark or design point.
type SweepRequest struct {
	// Benches lists workload names (BenchmarkByName), or "*" for all.
	Benches []string `json:"benches"`
	// Designs lists design-point names (DesignByName), or "*" for all.
	// May be empty when Single is set.
	Designs []string `json:"designs,omitempty"`
	// Single additionally includes each benchmark's single-threaded
	// baseline cell.
	Single bool `json:"single,omitempty"`
	// Stages additionally includes, per (bench, design) pair, a staged
	// pipeline cell for each listed stage count (each must be >= 2).
	Stages []int `json:"stages,omitempty"`
}

// sweepCell is one grid position: its normalized spec and content key.
type sweepCell struct {
	spec hfstream.Spec
	key  string
}

// expandSweep turns the request into its deduplicated cell list, in
// deterministic grid order (benches outermost, then single, designs,
// stages). Any invalid name or stage count fails the whole sweep up
// front — nothing has streamed yet, so the client gets a plain 400.
func expandSweep(req SweepRequest) ([]sweepCell, error) {
	benches := req.Benches
	if len(benches) == 1 && benches[0] == "*" {
		benches = benches[:0]
		for _, b := range hfstream.Benchmarks() {
			benches = append(benches, b.Name())
		}
	}
	designs := req.Designs
	if len(designs) == 1 && designs[0] == "*" {
		designs = designs[:0]
		for _, d := range hfstream.Designs() {
			designs = append(designs, d.Name())
		}
	}
	if len(benches) == 0 {
		return nil, fmt.Errorf("sweep grid is empty: benches is required")
	}
	if len(designs) == 0 && !req.Single {
		return nil, fmt.Errorf("sweep grid is empty: designs or single is required")
	}
	if len(req.Stages) > 0 && len(designs) == 0 {
		return nil, fmt.Errorf("sweep stages require designs")
	}
	perBench := len(designs) * (1 + len(req.Stages))
	if req.Single {
		perBench++
	}
	if n := len(benches) * perBench; n > maxSweepCells {
		return nil, fmt.Errorf("sweep grid too large: up to %d cells, max %d", n, maxSweepCells)
	}

	var cells []sweepCell
	seen := make(map[string]bool)
	add := func(spec hfstream.Spec) error {
		n, err := spec.Normalize()
		if err != nil {
			return err
		}
		key, err := n.Key()
		if err != nil {
			return err
		}
		if !seen[key] {
			seen[key] = true
			cells = append(cells, sweepCell{spec: n, key: key})
		}
		return nil
	}
	for _, bench := range benches {
		if req.Single {
			if err := add(hfstream.Spec{Bench: bench, Single: true}); err != nil {
				return nil, err
			}
		}
		for _, design := range designs {
			if err := add(hfstream.Spec{Bench: bench, Design: design}); err != nil {
				return nil, err
			}
			for _, st := range req.Stages {
				if err := add(hfstream.Spec{Bench: bench, Design: design, Stages: st}); err != nil {
					return nil, err
				}
			}
		}
	}
	return cells, nil
}

// cellResult pairs a finished cell with its outcome and provenance.
type cellResult struct {
	cell sweepCell
	out  *outcome
	src  string
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeOutcome(w, "", "", errorOutcome(http.StatusMethodNotAllowed, codeBadRequest, "POST required", nil))
		return
	}
	s.requests.Add(1)
	s.sweeps.Add(1)
	var req SweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeOutcome(w, "", "", errorOutcome(http.StatusBadRequest, codeBadRequest, "request body: "+err.Error(), nil))
		return
	}
	cells, err := expandSweep(req)
	if err != nil {
		writeOutcome(w, "", "", errorOutcome(http.StatusBadRequest, codeBadRequest, err.Error(), nil))
		return
	}

	w.Header().Set("Content-Type", ndjsonContentType)
	sw := newStreamWriter(w)
	sw.begin()

	ctx, cancel := s.joinRequestContext(r)
	defer cancel()

	// Fan the cells out: a bounded set of coordinator goroutines pulls
	// grid positions and resolves each through the shared cache /
	// singleflight / pool path, so one sweep never floods the pool queue
	// past the worker count and every simulation still lands on the
	// exp.Pool with normal admission control.
	coordinators := s.cfg.Workers
	if coordinators > len(cells) {
		coordinators = len(cells)
	}
	work := make(chan sweepCell)
	results := make(chan cellResult)
	for i := 0; i < coordinators; i++ {
		go func() {
			for cell := range work {
				results <- s.resolveCell(ctx, cell)
			}
		}()
	}
	go func() {
		for _, cell := range cells {
			work <- cell
		}
		close(work)
	}()

	// Exactly one result arrives per cell: after a cancel, in-flight
	// cells stop through the run context and unstarted cells resolve to
	// immediate canceled outcomes, so this loop is bounded either way.
	done := StreamEvent{Type: eventDone, Status: http.StatusOK, Cells: len(cells)}
	for received := 0; received < len(cells); received++ {
		cr := <-results
		spec := cr.cell.spec
		sw.send(outcomeEvent(cr.out, cr.cell.key, cr.src, &spec))
		switch {
		case !cr.out.ok:
			done.Errors++
		case cr.src == "hit":
			done.Hits++
		case cr.src == "peer":
			done.PeerHits++
		case cr.src == "coalesced":
			done.Coalesced++
		default:
			done.Ran++
		}
	}
	sw.send(done)
}

// resolveCell serves one grid cell exactly as handleRun serves one spec:
// cache fast path, then singleflight onto the pool-executing runOne. A
// cell reached after the sweep's context died short-circuits to a
// canceled outcome — never cached, never submitted to the pool.
func (s *Server) resolveCell(ctx context.Context, cell sweepCell) cellResult {
	if body, ok := s.cache.Get(cell.key); ok {
		s.cacheHits.Add(1)
		return cellResult{cell, &outcome{status: http.StatusOK, body: body, ok: true}, "hit"}
	}
	if ctx.Err() != nil {
		return cellResult{cell, errorOutcome(statusClientClosed, codeCanceled,
			"sweep canceled before this cell ran", nil), "miss"}
	}
	out, joined := s.flights.do(cell.key, func() *outcome {
		return s.runOne(ctx, cell.key, cell.spec, nil)
	})
	src := out.source
	if joined {
		s.coalesced.Add(1)
		src = "coalesced"
	}
	return cellResult{cell, out, src}
}
