package exp

import (
	"context"
	"fmt"

	"hfstream/internal/design"
	"hfstream/internal/sim"
	"hfstream/internal/stats"
	"hfstream/internal/workloads"
)

// BreakdownBar is one normalized stacked bar: Total is execution time
// relative to the row's baseline design, split into the six machine
// components (paper Figures 7, 10, 11, 12).
type BreakdownBar struct {
	Design string
	Total  float64
	Parts  [stats.NumBuckets]float64
}

// BreakdownRow is one benchmark's bars.
type BreakdownRow struct {
	Benchmark string
	Bars      []BreakdownBar
}

// BreakdownFigure is a full stacked-bar figure plus the geomean of each
// design's normalized totals.
type BreakdownFigure struct {
	Title   string
	Rows    []BreakdownRow
	Geomean []BreakdownBar
}

// breakdownFigure runs every benchmark on each config (fanned across the
// worker pool) and reads one core's bars off the grid.
func breakdownFigure(ctx context.Context, title string, configs []design.Config, coreIdx int) (*BreakdownFigure, error) {
	grid, err := runMatrix(ctx, configs)
	if err != nil {
		return nil, err
	}
	return breakdownOf(title, configs, grid, coreIdx), nil
}

// breakdownOf projects a runMatrix grid onto one core: each bar is that
// core's breakdown normalized to the first config's (the baseline's)
// execution time. A figure that shows both cores slices one grid twice.
func breakdownOf(title string, configs []design.Config, grid [][]*sim.Result, coreIdx int) *BreakdownFigure {
	fig := &BreakdownFigure{Title: title}
	sums := make([][]float64, len(configs))
	for bi, name := range workloads.Names() {
		row := BreakdownRow{Benchmark: name}
		var base float64
		for ci, cfg := range configs {
			bd := grid[bi][ci].Cores[coreIdx].Breakdown()
			total := float64(bd.Total())
			if ci == 0 {
				base = total
			}
			norm := total / base
			bar := BreakdownBar{Design: cfg.Name(), Total: norm, Parts: bd.Scaled(norm)}
			row.Bars = append(row.Bars, bar)
			sums[ci] = append(sums[ci], norm)
		}
		fig.Rows = append(fig.Rows, row)
	}
	for ci, cfg := range configs {
		fig.Geomean = append(fig.Geomean, BreakdownBar{
			Design: cfg.Name(), Total: stats.Geomean(sums[ci]),
		})
	}
	return fig
}

// Table renders the figure as text: one line per (benchmark, design).
func (f *BreakdownFigure) Table() string {
	t := stats.NewTable(f.Title,
		"Benchmark", "Design", "Norm.Time", "PreL2", "L2", "BUS", "L3", "MEM", "PostL2")
	for _, row := range f.Rows {
		for _, bar := range row.Bars {
			t.AddRowf(row.Benchmark, bar.Design, bar.Total,
				bar.Parts[stats.PreL2], bar.Parts[stats.L2], bar.Parts[stats.Bus],
				bar.Parts[stats.L3], bar.Parts[stats.Mem], bar.Parts[stats.PostL2])
		}
	}
	for _, g := range f.Geomean {
		t.AddRowf("GeoMean", g.Design, g.Total, "", "", "", "", "", "")
	}
	return t.String()
}

// NormTotal returns the geomean normalized time of the named design.
func (f *BreakdownFigure) NormTotal(designName string) float64 {
	for _, g := range f.Geomean {
		if g.Design == designName {
			return g.Total
		}
	}
	return 0
}

// ---- Figure 6 ----

// Fig6Ctx runs the transit-delay tolerance experiment (Figure 6: streaming
// codes tolerate transit delay): HEAVYWT at the baseline 1-cycle
// interconnect, at 10 cycles, and at 10 cycles with 64-entry queues,
// normalized to the first.
func Fig6Ctx(ctx context.Context) (*AblationResult, error) {
	lat10 := design.HeavyWTConfig()
	lat10.InterconnectLat = 10
	lat10.Label = "HEAVYWT_lat10"
	lat10q64 := lat10
	lat10q64.QueueDepth = 64
	lat10q64.Label = "HEAVYWT_lat10_q64"
	return ablate(ctx,
		"Figure 6: Effect of transit delay on streaming codes (HEAVYWT, normalized)",
		[]string{"1cyc/32q", "10cyc/32q", "10cyc/64q"},
		[]design.Config{design.HeavyWTConfig(), lat10, lat10q64})
}

// ---- Figure 7 ----

// Fig7Ctx runs the four primary design points and reports the producer
// thread's normalized execution-time breakdowns.
func Fig7Ctx(ctx context.Context) (*BreakdownFigure, error) {
	return breakdownFigure(ctx,
		"Figure 7: Normalized execution times for each design point (producer thread)",
		design.FourPoints(), 0)
}

// Fig7Consumer is the consumer-thread companion of Figure 7 — the paper
// omitted it "due to space constraints", noting overall consumer
// performance matched the producer with different component breakdowns.
func Fig7Consumer(ctx context.Context) (*BreakdownFigure, error) {
	return breakdownFigure(ctx,
		"Figure 7 (consumer thread; omitted in the paper for space)",
		design.FourPoints(), 1)
}

// ---- Figure 8 ----

// Fig8Row is one benchmark's dynamic communication-to-application
// instruction ratios.
type Fig8Row struct {
	Benchmark          string
	Producer, Consumer float64
}

// Fig8Result reproduces Figure 8 (ratio of communication to application
// instructions; the paper observes one communication per 5-20 application
// instructions on average).
type Fig8Result struct {
	Rows    []Fig8Row
	Geomean Fig8Row
}

// Fig8Ctx measures communication frequency on the HEAVYWT design (the
// produce/consume instruction builds, as in the paper).
func Fig8Ctx(ctx context.Context) (*Fig8Result, error) {
	res := &Fig8Result{Geomean: Fig8Row{Benchmark: "GeoMean"}}
	grid, err := runMatrix(ctx, []design.Config{design.HeavyWTConfig()})
	if err != nil {
		return nil, err
	}
	var gp, gc []float64
	for bi, name := range workloads.Names() {
		cores := grid[bi][0].Cores
		row := Fig8Row{Benchmark: name, Producer: cores[0].CommRatio(), Consumer: cores[1].CommRatio()}
		res.Rows = append(res.Rows, row)
		gp = append(gp, row.Producer)
		gc = append(gc, row.Consumer)
	}
	res.Geomean.Producer = stats.Geomean(gp)
	res.Geomean.Consumer = stats.Geomean(gc)
	return res, nil
}

// Table renders Figure 8 as text.
func (r *Fig8Result) Table() string {
	t := stats.NewTable("Figure 8: communication : application dynamic instruction ratio",
		"Benchmark", "Producer", "Consumer", "1 comm per N app (prod)", "(cons)")
	for _, row := range r.Rows {
		t.AddRowf(row.Benchmark, row.Producer, row.Consumer,
			perN(row.Producer), perN(row.Consumer))
	}
	t.AddRowf(r.Geomean.Benchmark, r.Geomean.Producer, r.Geomean.Consumer,
		perN(r.Geomean.Producer), perN(r.Geomean.Consumer))
	return t.String()
}

func perN(ratio float64) string {
	if ratio <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 1/ratio)
}

// ---- Figure 9 ----

// Fig9Row is one benchmark's loop speedup of HEAVYWT over the
// single-threaded baseline.
type Fig9Row struct {
	Benchmark    string
	SingleCycles uint64
	HeavyCycles  uint64
	Speedup      float64
}

// Fig9Result reproduces Figure 9 (geomean speedup of optimized loops in
// HEAVYWT over single-threaded execution; the paper reports 1.29).
type Fig9Result struct {
	Rows    []Fig9Row
	Geomean float64
}

// Fig9Ctx runs the speedup experiment: each benchmark's single-threaded
// baseline and HEAVYWT run are independent jobs on the worker pool.
func Fig9Ctx(ctx context.Context) (*Fig9Result, error) {
	benches := workloads.Names()
	heavy := design.HeavyWTConfig()
	jobs := make([]Job, 0, 2*len(benches))
	for _, name := range benches {
		jobs = append(jobs,
			Job{Bench: name, Single: true},
			Job{Bench: name, Config: heavy})
	}
	results := newRunner().Run(ctx, jobs)
	if err := FirstErr(results); err != nil {
		return nil, err
	}
	res := &Fig9Result{}
	var sp []float64
	for bi, name := range benches {
		single, heavyRes := results[2*bi].Res, results[2*bi+1].Res
		row := Fig9Row{
			Benchmark:    name,
			SingleCycles: single.Cycles,
			HeavyCycles:  heavyRes.Cycles,
			Speedup:      float64(single.Cycles) / float64(heavyRes.Cycles),
		}
		res.Rows = append(res.Rows, row)
		sp = append(sp, row.Speedup)
	}
	res.Geomean = stats.Geomean(sp)
	return res, nil
}

// Table renders Figure 9 as text.
func (r *Fig9Result) Table() string {
	t := stats.NewTable("Figure 9: Speedup of optimized loops in HEAVYWT over single-threaded execution",
		"Benchmark", "Single (cycles)", "HEAVYWT (cycles)", "Speedup")
	for _, row := range r.Rows {
		t.AddRowf(row.Benchmark, row.SingleCycles, row.HeavyCycles, row.Speedup)
	}
	t.AddRowf("GeoMean", "", "", r.Geomean)
	return t.String()
}

// ---- Figures 10 and 11 ----

// Fig10Ctx repeats Figure 7 with a 4-CPU-cycle bus (and a 4-cycle HEAVYWT
// interconnect), exposing arbitration backlog on the narrow bus.
func Fig10Ctx(ctx context.Context) (*BreakdownFigure, error) {
	configs := design.FourPoints()
	for i := range configs {
		configs[i].BusCPB = 4
		configs[i].InterconnectLat = 4
	}
	return breakdownFigure(ctx,
		"Figure 10: Effect of increased transit delay (bus latency = 4 CPU cycles)",
		configs, 0)
}

// Fig11Ctx widens the 4-cycle bus to 128 bytes (a full line per beat),
// restoring most of the lost performance.
func Fig11Ctx(ctx context.Context) (*BreakdownFigure, error) {
	configs := design.FourPoints()
	for i := range configs {
		configs[i].BusCPB = 4
		configs[i].BusWidth = 128
		configs[i].InterconnectLat = 4
	}
	return breakdownFigure(ctx,
		"Figure 11: Effect of increased interconnect bandwidth (bus width = 128 bytes, latency = 4)",
		configs, 0)
}

// ---- Figure 12 ----

// Fig12Result holds the producer- and consumer-thread breakdowns for the
// SYNCOPTI optimization study.
type Fig12Result struct {
	Producer *BreakdownFigure
	Consumer *BreakdownFigure
}

// Fig12Ctx evaluates the stream cache and queue-size optimizations:
// HEAVYWT vs SYNCOPTI_SC+Q64 vs SYNCOPTI_SC vs SYNCOPTI_Q64 vs SYNCOPTI,
// simulated once and read off per core.
func Fig12Ctx(ctx context.Context) (*Fig12Result, error) {
	configs := []design.Config{
		design.HeavyWTConfig(),
		design.SyncOptiSCQ64Config(),
		design.SyncOptiSCConfig(),
		design.SyncOptiQ64Config(),
		design.SyncOptiConfig(),
	}
	grid, err := runMatrix(ctx, configs)
	if err != nil {
		return nil, err
	}
	return &Fig12Result{
		Producer: breakdownOf("Figure 12 (producer): effect of streaming cache and queue size", configs, grid, 0),
		Consumer: breakdownOf("Figure 12 (consumer): effect of streaming cache and queue size", configs, grid, 1),
	}, nil
}

// Table renders both halves of Figure 12.
func (r *Fig12Result) Table() string {
	return r.Producer.Table() + "\n" + r.Consumer.Table()
}

// Chart renders both halves as stacked bars, producer first.
func (r *Fig12Result) Chart() string {
	return r.Producer.Chart() + "\n" + r.Consumer.Chart()
}
