package main

import (
	"context"
	"math"
	"os"
	"testing"
)

// The smoke test runs every workload at its smoke size, traced and
// untraced, in this process: two rounds, small op lists, a few probe
// batches. It checks that every op's output was correct, that every named
// metric is there and finite, and that the modelled machine's counts
// repeat exactly.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations for about half a minute")
	}
	ctx := context.Background()
	out := t.TempDir()
	for _, wl := range workloadCatalog {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			var reports [2]*report
			var digests [2]string
			for i, seed := range []int64{11, 11} {
				res, err := measure(ctx, runConfig{Workload: wl.Name, Seed: seed, Seconds: 1, Trace: true, Short: true, OutDir: out})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("%d of %d ops failed: %v", res.Failed, res.Attempted, res.Failures)
				}
				reports[i], digests[i] = reduceRuns(wl.Name, seed, []*runResult{res}), res.ModelDigest
				if i == 1 {
					break
				}
				for _, m := range perLayer {
					v, ok := res.Layers[m.Name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("per-layer metric %s: present %v, value %v", m.Name, ok, v)
					}
				}
				if _, err := os.Stat(res.TraceFile); err != nil {
					t.Errorf("trace file: %v", err)
				}
				if wl.Name == "matrix2" || wl.Name == "ncore" {
					if cov := res.Layers["harness.span_coverage_pct"]; cov < 95 {
						t.Errorf("span self times cover %.1f%% of op time, want at least 95%%", cov)
					}
				}
			}
			if digests[0] == "" || digests[0] != digests[1] {
				t.Errorf("model_digest %q then %q: the same seed must repeat it", digests[0], digests[1])
			}
			for _, m := range modelCounts {
				if a, b := reports[0].PerLayer[m.Name].Value, reports[1].PerLayer[m.Name].Value; a != b {
					t.Errorf("exact count %s: %v then %v", m.Name, a, b)
				}
			}
			if reports[0].PerLayer["sim.cycles"].Value == 0 {
				t.Error("sim.cycles is 0")
			}

			res, err := measure(ctx, runConfig{Workload: wl.Name, Seed: 12, Seconds: 1, Short: true, OutDir: out})
			if err != nil {
				t.Fatal(err)
			}
			rep := reduceRuns(wl.Name, 12, []*runResult{res})
			if !rep.Correct {
				t.Fatalf("untraced run incorrect: %v", rep.Failures)
			}
			for _, m := range endToEnd {
				v, ok := rep.EndToEnd[m.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
					t.Errorf("end-to-end metric %s: present %v, value %v (must be finite and never 0)", m.Name, ok, v.Value)
				}
			}
			if _, ok := rep.EndToEnd["sim_cycles_per_yt"]; ok == (wl.Name == "serve_hot") {
				t.Errorf("sim_cycles_per_yt present: %v", ok)
			}
			if _, ok := rep.EndToEnd["paper_err_pct"]; ok != (wl.Name == "matrix2") {
				t.Errorf("paper_err_pct present: %v", ok)
			}
		})
	}
}
