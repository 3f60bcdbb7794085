package exp

import (
	"context"
	"fmt"

	"hfstream/internal/core"
	"hfstream/internal/design"
	"hfstream/internal/stats"
)

// StallRow is one (design, core) aggregate over the benchmark suite:
// total active cycles, issue cycles, and the stall cycles charged to each
// blocking reason. Stalls.Total() == Cycles - IssueCycles by construction
// (the paper's Figure 6 delay decomposition, extended with the core-local
// hazard reasons).
type StallRow struct {
	Design      string
	Core        int
	Cycles      uint64
	IssueCycles uint64
	Stalls      core.StallCycles
	// Regions charges the same stall cycles to the responsible machine
	// region (PreL2 for core-local hazards, the blocking token's location
	// otherwise).
	Regions stats.Breakdown
}

// StallFigure is the per-design stall attribution table, aggregated over
// every benchmark of the suite.
type StallFigure struct {
	Rows []StallRow
}

// StallBreakdown runs every benchmark on each standard design point and
// aggregates per-core stall attribution across the suite.
func StallBreakdown(ctx context.Context) (*StallFigure, error) {
	configs := design.StandardConfigs()
	grid, err := runMatrix(ctx, configs)
	if err != nil {
		return nil, err
	}
	fig := &StallFigure{}
	for ci, cfg := range configs {
		for coreIdx := 0; coreIdx < 2; coreIdx++ {
			row := StallRow{Design: cfg.Name(), Core: coreIdx}
			for _, byConfig := range grid {
				res := byConfig[ci]
				row.Cycles += res.CoreCycles[coreIdx]
				row.IssueCycles += res.IssueCycles[coreIdx]
				for r := range res.Stalls[coreIdx] {
					row.Stalls[r] += res.Stalls[coreIdx][r]
				}
				for b := stats.Bucket(0); b < stats.NumBuckets; b++ {
					row.Regions.Add(b, res.StallRegions[coreIdx].Cycles[b])
				}
			}
			fig.Rows = append(fig.Rows, row)
		}
	}
	return fig, nil
}

// stallColumns lists the reasons in table order.
var stallColumns = []core.StallReason{
	core.StallOperand, core.StallToken, core.StallFU, core.StallOzQFull,
	core.StallLoadLimit, core.StallFence, core.StallQueueFull,
	core.StallQueueEmpty, core.StallWAW, core.StallHalted,
}

// Table renders the figure: one line per (design, core), stall cycles by
// reason plus the issue/stall/total accounting identity.
func (f *StallFigure) Table() string {
	headers := []string{"Design", "Core", "Cycles", "Issue", "Stall"}
	for _, r := range stallColumns {
		headers = append(headers, r.String())
	}
	t := stats.NewTable("Stall attribution (cycles summed over the benchmark suite)", headers...)
	for _, row := range f.Rows {
		cells := []string{
			row.Design,
			fmt.Sprintf("%d", row.Core),
			fmt.Sprintf("%d", row.Cycles),
			fmt.Sprintf("%d", row.IssueCycles),
			fmt.Sprintf("%d", row.Stalls.Total()),
		}
		for _, r := range stallColumns {
			cells = append(cells, fmt.Sprintf("%d", row.Stalls[r]))
		}
		t.AddRow(cells...)
	}
	return t.String()
}
