package experiments

import (
	"fmt"

	"linesearch/internal/analysis"
	"linesearch/internal/compiled"
	"linesearch/internal/strategy"
	"linesearch/internal/table"
	"linesearch/internal/trace"
)

func init() {
	register("spacing", Spacing)
}

// Spacing ablates the paper's central structural choice, Definition 2:
// turning points spaced geometrically (the proportional schedule) vs
// uniformly within each expansion period, with everything else — the
// cone, the optimal beta*, the start-up rule — held fixed. The measured
// competitive ratio of the uniform variant is strictly worse for every
// pair, showing the proportionality requirement is load-bearing, not
// aesthetic.
func Spacing() (*Result, error) {
	tb := table.New("n", "f", "beta*", "proportional CR", "uniform CR", "penalty")
	data := &trace.Dataset{
		Name:    "spacing",
		Columns: []string{"n", "f", "beta", "proportional", "uniform"},
	}
	pairs := [][2]int{{2, 1}, {3, 1}, {3, 2}, {4, 2}, {5, 2}, {5, 3}, {11, 5}}
	for _, pr := range pairs {
		n, f := pr[0], pr[1]
		beta, err := analysis.OptimalBeta(n, f)
		if err != nil {
			return nil, err
		}
		prop, err := measureCR(strategy.Proportional{}, n, f)
		if err != nil {
			return nil, err
		}
		uni, err := measureCR(strategy.UniformCone{Beta: beta}, n, f)
		if err != nil {
			return nil, err
		}
		tb.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", f),
			fmt.Sprintf("%.4f", beta),
			fmt.Sprintf("%.4f", prop),
			fmt.Sprintf("%.4f", uni),
			fmt.Sprintf("%+.4f", uni-prop),
		)
		if err := data.AddRow(float64(n), float64(f), beta, prop, uni); err != nil {
			return nil, err
		}
	}
	report := tb.Render() +
		"\nBoth schedules share the cone C_beta* and the Definition-4 start-up; only\n" +
		"the spacing of designated turning points differs (geometric vs uniform).\n"
	return &Result{
		ID:     "spacing",
		Title:  "Ablation: proportional (Definition 2) vs uniform turning-point spacing",
		Report: report,
		Data:   []*trace.Dataset{data},
	}, nil
}

// measureCR builds the strategy's plan and measures its competitive
// ratio empirically.
func measureCR(st strategy.Strategy, n, f int) (float64, error) {
	res, err := strategyCR(st, n, f, compiled.CROptions{XMax: 2000})
	if err != nil {
		return 0, err
	}
	return res.Sup, nil
}
