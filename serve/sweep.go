package serve

// POST /v1/sweep: a batch endpoint for the service's core use case —
// sweeping a (benchmarks × designs × options) grid. The grid expands
// into per-cell Specs, each cell is answered by the same resolve as a
// /v1/run request (same cache, same singleflight group, same pool), and
// cell results stream back as NDJSON metrics/error events in completion
// order, closing with a done event that tallies the sweep.
//
// Because cells share the /v1/run cache keys, a re-submitted sweep only
// simulates the cache misses, concurrent sweeps sharing cells coalesce
// onto one run per cell, and a sweep's cells are interchangeable with
// individual /v1/run requests — byte for byte, which the differential
// battery asserts.

import (
	"fmt"
	"net/http"

	"hfstream"
)

// maxSweepCells bounds one sweep's expanded grid; a larger request is
// rejected up front rather than half-streamed.
const maxSweepCells = 4096

// SweepRequest is the /v1/sweep body: the grid axes. "*" in Benches or
// Designs expands to every registered benchmark or design point; an
// N-core machine joins the grid by its design name ("HEAVYWT_3CORE").
type SweepRequest struct {
	// Benches lists workload names (BenchmarkByName), or "*" for all.
	Benches []string `json:"benches"`
	// Designs lists design-point names (DesignByName), or "*" for all.
	// May be empty when Single is set.
	Designs []string `json:"designs,omitempty"`
	// Single additionally includes each benchmark's single-threaded
	// baseline cell.
	Single bool `json:"single,omitempty"`
}

// sweepCell is one grid position: its normalized spec and content key.
type sweepCell struct {
	spec hfstream.Spec
	key  string
}

// Cells returns the normalized specs of the request's grid, in the order
// the server expands it — the cell universe a load generator draws from.
func (req SweepRequest) Cells() ([]hfstream.Spec, error) {
	cells, err := expandSweep(req)
	if err != nil {
		return nil, err
	}
	specs := make([]hfstream.Spec, len(cells))
	for i, c := range cells {
		specs[i] = c.spec
	}
	return specs, nil
}

// expandSweep turns the request into its deduplicated cell list, in
// deterministic grid order (benches outermost, then single, designs).
// Any invalid name fails the whole sweep up front — nothing has streamed
// yet, so the client gets a plain 400.
func expandSweep(req SweepRequest) ([]sweepCell, error) {
	benches := req.Benches
	if len(benches) == 1 && benches[0] == "*" {
		benches = nil // not benches[:0]: the request's slice is the caller's
		for _, b := range hfstream.Benchmarks() {
			benches = append(benches, b.Name())
		}
	}
	designs := req.Designs
	if len(designs) == 1 && designs[0] == "*" {
		designs = nil
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
	perBench := len(designs)
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
		}
	}
	return cells, nil
}

// cellResult pairs a finished cell with its outcome.
type cellResult struct {
	cell sweepCell
	out  outcome
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeOutcome(w, "", errorOutcome(http.StatusMethodNotAllowed, codeBadRequest, "POST required", nil))
		return
	}
	s.requests.Add(1)
	s.sweeps.Add(1)
	var req SweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeOutcome(w, "", errorOutcome(http.StatusBadRequest, codeBadRequest, "request body: "+err.Error(), nil))
		return
	}
	cells, err := expandSweep(req)
	if err != nil {
		writeOutcome(w, "", errorOutcome(http.StatusBadRequest, codeBadRequest, err.Error(), nil))
		return
	}

	w.Header().Set("Content-Type", ndjsonContentType)
	sw := newStreamWriter(w)
	sw.begin()

	// Fan the cells out: a bounded set of coordinator goroutines pulls
	// grid positions and resolves each exactly as handleRun resolves one
	// spec, so one sweep never floods the pool queue past the worker
	// count and every simulation still lands on the exp.Pool with normal
	// admission control.
	coordinators := s.cfg.Workers
	if coordinators > len(cells) {
		coordinators = len(cells)
	}
	work := make(chan sweepCell)
	results := make(chan cellResult)
	for i := 0; i < coordinators; i++ {
		go func() {
			for cell := range work {
				results <- cellResult{cell, s.resolve(r.Context(), cell.key, cell.spec, nil)}
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
	// immediate canceled outcomes (runOne never submits a dead context
	// to the pool), so this loop is bounded either way.
	done := StreamEvent{Type: eventDone, Status: http.StatusOK, Cells: len(cells)}
	for received := 0; received < len(cells); received++ {
		cr := <-results
		sw.send(outcomeEvent(&cr.out, cr.cell.key, &cr.cell.spec))
		switch {
		case !cr.out.ok:
			done.Errors++
		case cr.out.source == "hit":
			done.Hits++
		case cr.out.source == "peer":
			done.PeerHits++
		case cr.out.source == "coalesced":
			done.Coalesced++
		default:
			done.Ran++
		}
	}
	sw.send(done)
}
