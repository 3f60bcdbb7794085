package exp

import (
	"context"
	"fmt"

	"hfstream/internal/design"
	"hfstream/internal/stats"
	"hfstream/internal/workloads"
)

// StageRow reports one benchmark's cycle counts per pipeline depth.
type StageRow struct {
	Benchmark string
	// Cycles[d] is the runtime with d+1 cores (index 0 = single).
	Cycles []uint64
	// Supported marks depths the kernel's SCC structure allows.
	Supported []bool
}

// StagesResult extends the paper's dual-core evaluation: DSWP depth 1-3
// on HEAVYWT machines with matching core counts (the paper argues its
// pairwise conclusions carry to larger-scale CMPs).
type StagesResult struct {
	Rows []StageRow
}

// AblationStages runs each IR benchmark on HEAVYWT machines of 1, 2 and 3
// cores (the unpartitioned loop, then one DSWP stage per core). Kernels
// whose dependence structure cannot fill three stages are marked
// unsupported rather than failed.
func AblationStages(ctx context.Context) (*StagesResult, error) {
	res := &StagesResult{}
	for _, b := range workloads.All() {
		if b.Loop == nil {
			continue // hand-partitioned nested loop
		}
		row := StageRow{Benchmark: b.Name, Cycles: make([]uint64, 3), Supported: make([]bool, 3)}
		for d := range row.Cycles {
			cfg := design.HeavyWTConfig().WithCores(d + 1)
			threads, routes, err := plan(b, cfg)
			if err != nil {
				continue // structurally unsupported
			}
			r, err := execute(ctx, b, cfg, cfg.Name(), threads, routes, RunOpts{})
			if err != nil {
				return nil, err
			}
			row.Cycles[d], row.Supported[d] = r.Cycles, true
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the pipeline-depth comparison.
func (r *StagesResult) Table() string {
	t := stats.NewTable(
		"Ablation: DSWP pipeline depth on HEAVYWT (cycles; speedup vs 1 core)",
		"Benchmark", "1 core", "2 cores", "3 cores")
	for _, row := range r.Rows {
		cells := []interface{}{row.Benchmark}
		for d := 0; d < 3; d++ {
			if !row.Supported[d] {
				cells = append(cells, "n/a")
				continue
			}
			if d == 0 {
				cells = append(cells, fmt.Sprintf("%d", row.Cycles[0]))
			} else {
				cells = append(cells, fmt.Sprintf("%d (%.2fx)", row.Cycles[d],
					float64(row.Cycles[0])/float64(row.Cycles[d])))
			}
		}
		t.AddRowf(cells...)
	}
	return t.String()
}
