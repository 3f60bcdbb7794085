package exp

import "context"

// Figure is any experiment result: it renders itself as a text table. A
// result that also has a stacked-bar rendering adds Chart() string, which
// hfexp -charts and hfreport look for.
type Figure interface{ Table() string }

// Experiment is one row of the evaluation: hfexp, hfreport, RunExperiment
// and the golden files under testdata/experiments all read Catalog, so an
// experiment is described here and nowhere else.
type Experiment struct {
	// Name is what RunExperiment accepts and what the golden file and
	// DESIGN.md's index are called.
	Name string
	// Flag is the hfexp flag that selects the row; rows may share one
	// (the ablations), and "" leaves the row to hfreport and
	// RunExperiment alone.
	Flag string
	// Help is the flag's usage text and hfreport's section heading.
	Help string
	// Default marks the rows a bare `hfexp` regenerates.
	Default bool
	Run     func(context.Context) (Figure, error)
}

const ablationsHelp = "design-space ablations beyond the paper's figures"

// Catalog lists every experiment in print order, which is also job order:
// hfexp runs the selected rows top to bottom.
var Catalog = []Experiment{
	{"table1", "table1", "benchmark loop information", true, rendered(Table1)},
	{"table2", "table2", "baseline simulator configuration", true, rendered(Table2)},
	{"fig3", "fig3", "transit vs COMM-OP delay illustration", true,
		rendered(func() string { return Fig3().Table() })},
	{"fig6", "fig6", "transit-delay tolerance (HEAVYWT)", true, simulated(Fig6Ctx)},
	{"fig7", "fig7", "design-point execution time breakdowns", true, simulated(Fig7Ctx)},
	{"fig7-consumer", "", "Figure 7's consumer thread (omitted in the paper for space)", false, simulated(Fig7Consumer)},
	{"fig8", "fig8", "communication frequency", true, simulated(Fig8Ctx)},
	{"fig9", "fig9", "HEAVYWT speedup over single-threaded", true, simulated(Fig9Ctx)},
	{"fig10", "fig10", "4-cycle bus sensitivity", true, simulated(Fig10Ctx)},
	{"fig11", "fig11", "128-byte bus bandwidth", true, simulated(Fig11Ctx)},
	{"fig12", "fig12", "stream cache and queue size optimizations", true, simulated(Fig12Ctx)},
	{"scaling", "scaling", "N-core scaling curves: speedup vs core count per design", true, simulated(ScalingCtx)},
	{"stalls", "stalls", "per-design stall-cycle attribution table", true, simulated(StallBreakdown)},
	{"ablation-qlu", "ablations", ablationsHelp, false, simulated(AblationQLU)},
	{"ablation-bus-pipelining", "ablations", ablationsHelp, false, simulated(AblationBusPipelining)},
	{"ablation-regmapped", "ablations", ablationsHelp, false, simulated(AblationRegMapped)},
	{"ablation-centralized-store", "ablations", ablationsHelp, false, simulated(AblationCentralizedStore)},
	{"ablation-stream-cache", "ablations", ablationsHelp, false, simulated(AblationStreamCacheSize)},
	{"ablation-netqueue", "ablations", ablationsHelp, false, simulated(AblationNetQueue)},
	{"ablation-probe-timeout", "ablations", ablationsHelp, false, simulated(AblationProbeTimeout)},
	{"ablation-stages", "ablations", ablationsHelp, false, simulated(AblationStages)},
	{"costs", "costs", "hardware/OS cost vs performance summary", false, simulated(Costs)},
}

// text is a Figure that is already rendered.
type text string

func (t text) Table() string { return string(t) }

// rendered adapts a pure table: it simulates nothing, so it ignores ctx
// and finishes even under a dead one.
func rendered(table func() string) func(context.Context) (Figure, error) {
	return func(context.Context) (Figure, error) { return text(table()), nil }
}

// simulated adapts a figure function to the catalog's Run shape.
func simulated[T Figure](run func(context.Context) (T, error)) func(context.Context) (Figure, error) {
	return func(ctx context.Context) (Figure, error) {
		fig, err := run(ctx)
		if err != nil {
			return nil, err
		}
		return fig, nil
	}
}
