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
// each returns the cancellation at once, having simulated nothing.
func TestExperimentsHonorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run := func(f func(context.Context) (*AblationResult, error)) func(context.Context) error {
		return func(ctx context.Context) error { _, err := f(ctx); return err }
	}
	cases := map[string]func(context.Context) error{
		"AblationQLU":              run(AblationQLU),
		"AblationBusPipelining":    run(AblationBusPipelining),
		"AblationRegMapped":        run(AblationRegMapped),
		"AblationCentralizedStore": run(AblationCentralizedStore),
		"AblationStreamCacheSize":  run(AblationStreamCacheSize),
		"AblationNetQueue":         run(AblationNetQueue),
		"AblationProbeTimeout":     run(AblationProbeTimeout),
		"AblationStages":           func(ctx context.Context) error { _, err := AblationStages(ctx); return err },
		"StallBreakdown":           func(ctx context.Context) error { _, err := StallBreakdown(ctx); return err },
		"Costs":                    func(ctx context.Context) error { _, err := Costs(ctx); return err },
		"Fig7Consumer":             func(ctx context.Context) error { _, err := Fig7Consumer(ctx); return err },
	}
	for name, f := range cases {
		start := time.Now()
		err := f(ctx)
		var ce *sim.CanceledError
		if !errors.Is(err, context.Canceled) && !errors.As(err, &ce) {
			t.Errorf("%s under a canceled context: err = %v, want a cancellation", name, err)
		}
		// A whole sweep takes seconds; a canceled one only builds its job
		// list (AblationStages also partitions, which PR 13 made cheap).
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s took %v to notice a canceled context", name, d)
		}
	}
}
