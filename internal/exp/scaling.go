package exp

import (
	"context"
	"fmt"

	"hfstream/internal/design"
	"hfstream/internal/stats"
	"hfstream/internal/workloads"
)

// The scaling study extends the paper's dual-core evaluation to N-core
// CMPs: each design point runs the same kernels at every core count and
// the figure plots speedup over the single-core baseline. Pipeline
// shapes come from the partitioners (PartitionN for k-stage chains,
// PartitionParallel for replicated workers + merger), so a cell is "n/a"
// exactly when the kernel's dependence structure cannot fill that shape.

// ScalingCores is the core-count axis of the scaling study.
var ScalingCores = []int{1, 2, 3, 4, 6, 8}

// ScalingBenches names the kernels of the study: two StreamIt/SPEC
// kernels with enough SCC structure to fill deep pipelines.
var ScalingBenches = []string{"fft2", "equake"}

// ScalingDesigns returns the design points of the scaling study: the
// paper's best lightweight point, the dedicated-storage point (both as
// k-stage chains), and the parallel-stage MPMC point.
func ScalingDesigns() []design.Config {
	return []design.Config{
		design.SyncOptiSCQ64Config(),
		design.HeavyWTConfig(),
		design.MPMCQ64Config(),
	}
}

// ScalingCell is one (benchmark, design, cores) measurement.
type ScalingCell struct {
	Cycles uint64
	// Supported marks shapes the kernel's dependence structure allows.
	Supported bool
}

// ScalingRow is one benchmark's curve on one design point, indexed like
// ScalingResult.Cores.
type ScalingRow struct {
	Benchmark string
	Design    string
	Cells     []ScalingCell
}

// ScalingResult is a core-count study: cycles and speedup vs core count
// for every (benchmark, design) pair.
type ScalingResult struct {
	Title string
	Cores []int
	Rows  []ScalingRow
}

// ScalingCtx runs the full scaling study.
func ScalingCtx(ctx context.Context) (*ScalingResult, error) {
	return coreStudy(ctx,
		"Scaling: speedup vs core count per design (cycles; speedup vs 1 core)",
		ScalingBenches, ScalingDesigns(), ScalingCores)
}

// coreStudy runs benches x designs x cores as one job list on the default
// runner. The single-core baseline is design-independent (one core
// touches no queue), so it is run once per benchmark and shared across
// that benchmark's rows; a shape the kernel cannot fill is left
// unsupported rather than failed.
func coreStudy(ctx context.Context, title string, benches []string, designs []design.Config, cores []int) (*ScalingResult, error) {
	res := &ScalingResult{Title: title, Cores: cores}
	var jobs []Job
	type slot struct{ row, cell, job int }
	var slots []slot
	for _, bname := range benches {
		b, err := workloads.ByName(bname)
		if err != nil {
			return nil, err
		}
		single := len(jobs)
		jobs = append(jobs, Job{Bench: bname, Single: true})
		for _, cfg := range designs {
			ri := len(res.Rows)
			res.Rows = append(res.Rows, ScalingRow{Benchmark: bname, Design: cfg.Name(),
				Cells: make([]ScalingCell, len(cores))})
			for ci, n := range cores {
				ji := single
				if n > 1 {
					shape := cfg.WithCores(n)
					if !shapeSupported(b, shape) {
						continue
					}
					ji = len(jobs)
					jobs = append(jobs, Job{Bench: bname, Config: shape})
				}
				slots = append(slots, slot{row: ri, cell: ci, job: ji})
			}
		}
	}
	results := newRunner().Run(ctx, jobs)
	if err := FirstErr(results); err != nil {
		return nil, err
	}
	for _, s := range slots {
		res.Rows[s.row].Cells[s.cell] = ScalingCell{
			Cycles: results[s.job].Res.Cycles, Supported: true}
	}
	return res, nil
}

// shapeSupported reports whether the kernel's dependence structure can
// fill the shape cfg asks for; studies render the rest "n/a" rather than
// failing.
func shapeSupported(b *workloads.Benchmark, cfg design.Config) bool {
	_, _, err := plan(b, cfg)
	return err == nil
}

// Table renders the study: raw cycles per cell, with the speedup over the
// row's single-core cell beside every multi-core one.
func (r *ScalingResult) Table() string {
	hdr := []string{"Benchmark", "Design"}
	for _, c := range r.Cores {
		if c == 1 {
			hdr = append(hdr, "1 core")
		} else {
			hdr = append(hdr, fmt.Sprintf("%d cores", c))
		}
	}
	t := stats.NewTable(r.Title, hdr...)
	for _, row := range r.Rows {
		cells := []interface{}{row.Benchmark, row.Design}
		var base uint64
		if len(row.Cells) > 0 && row.Cells[0].Supported {
			base = row.Cells[0].Cycles
		}
		for i, c := range row.Cells {
			switch {
			case !c.Supported:
				cells = append(cells, "n/a")
			case i == 0 || base == 0 || c.Cycles == 0:
				cells = append(cells, fmt.Sprintf("%d", c.Cycles))
			default:
				cells = append(cells, fmt.Sprintf("%d (%.2fx)", c.Cycles,
					float64(base)/float64(c.Cycles)))
			}
		}
		t.AddRowf(cells...)
	}
	return t.String()
}
