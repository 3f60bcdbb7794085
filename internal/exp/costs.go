package exp

import (
	"context"
	"fmt"

	"hfstream/internal/design"
	"hfstream/internal/stats"
)

// CostRow is one design's cost/performance summary.
type CostRow struct {
	Design          string
	AddedBytes      int
	OSContextBytes  int
	SwitchCycles    float64
	NormPerformance float64 // producer-thread geomean time vs HEAVYWT
}

// CostResult reproduces the paper's cost/performance trade-off argument:
// SYNCOPTI_SC+Q64 achieves nearly HEAVYWT's performance with ~1% of its
// additional storage and a fraction of its OS context.
type CostResult struct {
	Rows []CostRow
	// StorageRatio is SYNCOPTI_SC+Q64's added storage as a fraction of
	// HEAVYWT's (the paper's "1%" claim).
	StorageRatio float64
}

// Costs computes the hardware/OS cost table and joins it with measured
// performance: the producer thread's geomean time against HEAVYWT, the
// number Figures 7 and 12 print for these designs, read off one grid.
func Costs(ctx context.Context) (*CostResult, error) {
	configs := []design.Config{
		design.HeavyWTConfig(), // the baseline breakdownOf normalizes to
		design.ExistingConfig(),
		design.MemOptiConfig(),
		design.SyncOptiConfig(),
		design.SyncOptiSCQ64Config(),
	}
	grid, err := runMatrix(ctx, configs)
	if err != nil {
		return nil, err
	}
	perf := breakdownOf("", configs, grid, 0)

	res := &CostResult{}
	var heavyBytes, scq64Bytes int
	for _, cfg := range append(configs[1:], configs[0]) { // cheapest first, HEAVYWT last
		hc := cfg.Cost()
		row := CostRow{
			Design:         cfg.Name(),
			AddedBytes:     hc.TotalAddedBytes(),
			OSContextBytes: hc.OSContextBytes,
			// 16 bytes/cycle spill bandwidth (the L3 bus), 200 cycles to
			// drain in-flight interconnect state.
			SwitchCycles:    hc.ContextSwitchCycles(16, 200),
			NormPerformance: perf.NormTotal(cfg.Name()),
		}
		res.Rows = append(res.Rows, row)
		switch cfg.Point {
		case design.HeavyWT:
			heavyBytes = row.AddedBytes
		case design.SyncOpti:
			if cfg.StreamCacheEntries > 0 {
				scq64Bytes = row.AddedBytes
			}
		}
	}
	if heavyBytes > 0 {
		res.StorageRatio = float64(scq64Bytes) / float64(heavyBytes)
	}
	return res, nil
}

// Table renders the cost/performance summary.
func (r *CostResult) Table() string {
	t := stats.NewTable(
		"Cost vs performance (paper conclusion: 98% of the speedup at 1% of the storage)",
		"Design", "Added storage (B)", "OS context (B)", "Switch cost (cyc)", "Time vs HEAVYWT")
	for _, row := range r.Rows {
		t.AddRowf(row.Design, row.AddedBytes, row.OSContextBytes,
			fmt.Sprintf("%.0f", row.SwitchCycles), row.NormPerformance)
	}
	t.AddRowf("SC+Q64 / HEAVYWT storage", fmt.Sprintf("%.1f%%", r.StorageRatio*100), "", "", "")
	return t.String()
}
