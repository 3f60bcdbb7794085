package hfstream

import (
	"context"

	"hfstream/internal/exp"
)

// Experiment names accepted by RunExperiment.
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

// ExperimentNames lists every reproducible table and figure.
func ExperimentNames() []string {
	return []string{
		ExpTable1, ExpTable2, ExpFig3, ExpFig6, ExpFig7,
		ExpFig8, ExpFig9, ExpFig10, ExpFig11, ExpFig12,
		ExpScaling,
	}
}

// RunExperiment regenerates one of the paper's tables or figures and
// returns its text rendering. Figure experiments run the full benchmark
// matrix and take seconds each. It is RunExperimentCtx without
// cancellation.
func RunExperiment(name string) (string, error) {
	return RunExperimentCtx(context.Background(), name)
}

// experiments maps each name to its runner, rendered as a text table.
var experiments = map[string]func(context.Context) (string, error){
	ExpTable1:  func(context.Context) (string, error) { return exp.Table1(), nil },
	ExpTable2:  func(context.Context) (string, error) { return exp.Table2(), nil },
	ExpFig3:    func(context.Context) (string, error) { return exp.Fig3().Table(), nil },
	ExpFig6:    tableOf(exp.Fig6Ctx),
	ExpFig7:    tableOf(exp.Fig7Ctx),
	ExpFig8:    tableOf(exp.Fig8Ctx),
	ExpFig9:    tableOf(exp.Fig9Ctx),
	ExpFig10:   tableOf(exp.Fig10Ctx),
	ExpFig11:   tableOf(exp.Fig11Ctx),
	ExpFig12:   tableOf(exp.Fig12Ctx),
	ExpScaling: tableOf(exp.ScalingCtx),
}

func tableOf[T interface{ Table() string }](run func(context.Context) (T, error)) func(context.Context) (string, error) {
	return func(ctx context.Context) (string, error) {
		r, err := run(ctx)
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	}
}

// RunExperimentCtx is RunExperiment with cancellation: once ctx is done,
// in-flight simulations abort and the experiment returns an error. The
// table experiments (table1, table2, fig3) are pure computations and
// finish regardless of ctx.
func RunExperimentCtx(ctx context.Context, name string) (string, error) {
	run, ok := experiments[name]
	if !ok {
		return "", errUnknownExperiment(name)
	}
	return run(ctx)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "hfstream: unknown experiment " + string(e)
}
