package exp

import (
	"context"
	"errors"
	"testing"
	"time"

	"hfstream/internal/sim"
)

// TestExperimentsHonorCancellation: every experiment that simulates runs
// under its caller's context, so hfexp's Ctrl-C stops -ablations, -stalls
// and -costs as it stops the figures. Under an already-canceled context
// each catalog row returns the cancellation at once, having simulated
// nothing — except the three pure tables, which have nothing to cancel
// and must still render.
func TestExperimentsHonorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pure := map[string]bool{"table1": true, "table2": true, "fig3": true}
	for _, e := range Catalog {
		start := time.Now()
		fig, err := e.Run(ctx)
		if pure[e.Name] {
			if err != nil || fig.Table() == "" {
				t.Errorf("%s under a canceled context: err = %v, want its table", e.Name, err)
			}
			continue
		}
		var ce *sim.CanceledError
		if !errors.Is(err, context.Canceled) && !errors.As(err, &ce) {
			t.Errorf("%s under a canceled context: err = %v, want a cancellation", e.Name, err)
		}
		// A whole sweep takes seconds; a canceled one only builds its job
		// list (the core-count studies also partition, which PR 13 made
		// cheap).
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s took %v to notice a canceled context", e.Name, d)
		}
	}
}
