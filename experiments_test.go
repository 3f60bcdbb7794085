package hfstream

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"
)

// pureExperiments are the table renderings that do no simulation.
var pureExperiments = map[string]bool{
	ExpTable1: true, ExpTable2: true, ExpFig3: true,
}

// TestRunExperimentAll resolves every registered experiment under a
// canceled context, so that nothing is simulated: no name may come back
// unknown, and the pure tables, having nothing to cancel, must return
// exactly their pinned bytes. What the simulating rows render is pinned
// byte for byte by internal/exp's TestCatalogGolden, so this test does not
// run the catalog a second time.
func TestRunExperimentAll(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range ExperimentNames() {
		t.Run(name, func(t *testing.T) {
			out, err := RunExperimentCtx(ctx, name)
			var unknown errUnknownExperiment
			if errors.As(err, &unknown) {
				t.Fatalf("registered experiment does not resolve: %v", err)
			}
			if !pureExperiments[name] {
				return
			}
			want, rerr := os.ReadFile("internal/exp/testdata/experiments/" + name + ".txt")
			if err != nil || rerr != nil || out != string(want) {
				t.Errorf("under a canceled context: (%q, %v), want %q (%v)", out, err, want, rerr)
			}
		})
	}
}

// TestRunExperimentCtxCanceled: a canceled context must abort every
// simulating experiment with the cancellation instead of running its
// matrix.
func TestRunExperimentCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range ExperimentNames() {
		if pureExperiments[name] {
			continue
		}
		if out, err := RunExperimentCtx(ctx, name); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a canceled context: (%d bytes, %v), want a cancellation", name, len(out), err)
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	_, err := RunExperiment("nope")
	if err == nil {
		t.Fatal("expected error for unknown experiment")
	}
	if !strings.Contains(err.Error(), "nope") {
		t.Errorf("error %q does not name the bad experiment", err)
	}
}
