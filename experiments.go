package hfstream

import (
	"context"

	"hfstream/internal/exp"
)

// Names of the paper's experiments; ExperimentNames lists every name
// RunExperiment accepts.
const (
	ExpTable1 = "table1"
	ExpTable2 = "table2"
	ExpFig3   = "fig3"
	ExpFig6   = "fig6"
	ExpFig7   = "fig7"
	ExpFig8   = "fig8"
	ExpFig9   = "fig9"
	ExpFig10  = "fig10"
	ExpFig11  = "fig11"
	ExpFig12  = "fig12"
	// ExpScaling is the N-core extension study: speedup vs core count for
	// the k-stage and parallel-stage design points (not a paper figure).
	ExpScaling = "scaling"
)

// ExperimentNames lists every experiment RunExperiment accepts — the
// paper's tables and figures, then the studies beyond them (fig7-consumer,
// scaling, stalls, the ablation-* rows, costs) — in hfexp's print order.
func ExperimentNames() []string {
	names := make([]string, len(exp.Catalog))
	for i, e := range exp.Catalog {
		names[i] = e.Name
	}
	return names
}

// RunExperiment regenerates one of the paper's tables or figures and
// returns its text rendering. Figure experiments run the full benchmark
// matrix and take seconds each. It is RunExperimentCtx without
// cancellation.
func RunExperiment(name string) (string, error) {
	return RunExperimentCtx(context.Background(), name)
}

// RunExperimentCtx is RunExperiment with cancellation: once ctx is done,
// in-flight simulations abort and the experiment returns an error. The
// table experiments (table1, table2, fig3) are pure computations and
// finish regardless of ctx.
func RunExperimentCtx(ctx context.Context, name string) (string, error) {
	for _, e := range exp.Catalog {
		if e.Name == name {
			fig, err := e.Run(ctx)
			if err != nil {
				return "", err
			}
			return fig.Table(), nil
		}
	}
	return "", errUnknownExperiment(name)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "hfstream: unknown experiment " + string(e)
}
