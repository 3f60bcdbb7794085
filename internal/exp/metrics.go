package exp

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"hfstream/internal/design"
	"hfstream/internal/sim"
	"hfstream/internal/workloads"
)

// Metrics collection: each (benchmark, design) pair becomes one annotated
// sim.Metrics snapshot, fanned across the worker pool. WriteMetricsDir
// serializes them one file per pair so CI can diff perf trajectories
// numerically against checked-in goldens.

// CollectMetrics runs every (benchmark, config) pair and returns the
// annotated snapshots in input order. benches of nil means every
// benchmark.
func CollectMetrics(ctx context.Context, benches []string, configs []design.Config) ([]*sim.Metrics, error) {
	if benches == nil {
		benches = workloads.Names()
	}
	jobs := make([]Job, 0, len(benches)*len(configs))
	for _, name := range benches {
		if err := workloads.Check(name); err != nil {
			return nil, err
		}
		for _, cfg := range configs {
			jobs = append(jobs, Job{Bench: name, Config: cfg})
		}
	}
	results := newRunner().Run(ctx, jobs)
	if err := FirstErr(results); err != nil {
		return nil, err
	}
	out := make([]*sim.Metrics, len(results))
	for i, r := range results {
		m := r.Res.Metrics()
		m.Benchmark = r.Job.Bench
		m.Design = r.Job.Config.Name()
		out[i] = m
	}
	return out, nil
}

// MetricsFileName names the snapshot file for one (benchmark, design)
// pair, e.g. "bzip2__SYNCOPTI_SC+Q64.json".
func MetricsFileName(bench, designName string) string {
	return fmt.Sprintf("%s__%s.json", bench, designName)
}

// WriteMetricsDir collects metrics for the given benchmarks (nil = all)
// across the standard design points and writes one JSON file per pair
// into dir, creating it if needed. The files are deterministic, so
// regenerating over an unchanged simulator is a no-op diff.
func WriteMetricsDir(ctx context.Context, dir string, benches []string) error {
	ms, err := CollectMetrics(ctx, benches, design.StandardConfigs())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, m := range ms {
		buf, err := sim.MetricsJSON(m)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, MetricsFileName(m.Benchmark, m.Design))
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return err
		}
	}
	return nil
}
