package experiments

import (
	"fmt"
	"math"
	"strings"

	"linesearch/internal/analysis"
	"linesearch/internal/compiled"
	"linesearch/internal/strategy"
	"linesearch/internal/table"
	"linesearch/internal/trace"
)

func init() {
	register("table1", Table1)
	register("lowerbound", LowerBound)
	register("verify", Verify)
	register("betasweep", BetaSweep)
}

// Table1 regenerates the paper's Table 1: upper and lower bounds on the
// competitive ratio and the expansion factor of A(n, f) for the paper's
// twelve (n, f) pairs.
func Table1() (*Result, error) {
	rows, err := analysis.Table1()
	if err != nil {
		return nil, err
	}
	tb := table.New("n", "f", "comp. ratio of A(n,f)", "lower bound", "expansion factor")
	data := &trace.Dataset{
		Name:    "table1",
		Columns: []string{"n", "f", "cr", "lower_bound", "expansion"},
	}
	for _, r := range rows {
		exp := "-"
		if r.HasExpansion() {
			exp = fmt.Sprintf("%.4g", r.Expansion)
		}
		tb.AddRow(
			fmt.Sprintf("%d", r.N),
			fmt.Sprintf("%d", r.F),
			fmt.Sprintf("%.4g", r.CompetitiveRatio),
			fmt.Sprintf("%.4g", r.LowerBound),
			exp,
		)
		if err := data.AddRow(float64(r.N), float64(r.F), r.CompetitiveRatio, r.LowerBound, r.Expansion); err != nil {
			return nil, err
		}
	}
	return &Result{
		ID:     "table1",
		Title:  "Table 1: upper and lower bounds for specific values of n and f",
		Report: tb.Render(),
		Data:   []*trace.Dataset{data},
	}, nil
}

// LowerBound solves the Theorem 2 equation for a range of n and plays
// the adversarial ladder against the paper's own algorithm, confirming
// that A(n, f) suffers at least alpha on the ladder targets.
func LowerBound() (*Result, error) {
	tb := table.New("n", "f", "alpha (Theorem 2)", "ladder ratio of A(n,f)", "holds")
	data := &trace.Dataset{
		Name:    "lowerbound",
		Columns: []string{"n", "f", "alpha", "ladder_ratio"},
	}
	pairs := [][2]int{{2, 1}, {3, 1}, {3, 2}, {4, 2}, {5, 2}, {5, 3}, {7, 3}, {9, 4}, {11, 5}, {21, 10}, {41, 20}}
	for _, pr := range pairs {
		n, f := pr[0], pr[1]
		res, err := ladderGame(n, f)
		if err != nil {
			return nil, fmt.Errorf("ladder game (%d, %d): %w", n, f, err)
		}
		holds := "yes"
		if res.Ratio < res.Alpha-1e-9 {
			holds = "NO — bound violated"
		}
		tb.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", f),
			fmt.Sprintf("%.4f", res.Alpha),
			fmt.Sprintf("%.4f", res.Ratio),
			holds,
		)
		if err := data.AddRow(float64(n), float64(f), res.Alpha, res.Ratio); err != nil {
			return nil, err
		}
	}
	report := tb.Render() +
		"\nalpha solves (alpha-1)^n (alpha-3) = 2^(n+1); Theorem 2 proves every\n" +
		"algorithm with n < 2f+2 robots suffers ratio >= alpha on some ladder target.\n"
	return &Result{
		ID:     "lowerbound",
		Title:  "Theorem 2 lower bounds and the adversarial ladder game",
		Report: report,
		Data:   []*trace.Dataset{data},
	}, nil
}

// Verify is experiment E6: the measured competitive ratio of the
// realised algorithm must match the closed form for every Table 1 pair.
func Verify() (*Result, error) {
	tb := table.New("n", "f", "strategy", "analytic CR", "empirical CR", "|diff|")
	data := &trace.Dataset{
		Name:    "verify",
		Columns: []string{"n", "f", "analytic", "empirical", "absdiff"},
	}
	worst := 0.0
	for _, pr := range analysis.Table1Pairs() {
		n, f := pr[0], pr[1]
		st, err := strategy.ForPair(n, f)
		if err != nil {
			return nil, err
		}
		analytic, ok := st.AnalyticCR(n, f)
		if !ok {
			return nil, fmt.Errorf("no closed form for (%d, %d)", n, f)
		}
		res, err := strategyCR(st, n, f, compiled.CROptions{XMax: 2000})
		if err != nil {
			return nil, err
		}
		diff := math.Abs(res.Sup - analytic)
		if diff > worst {
			worst = diff
		}
		tb.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", f),
			st.Name(),
			fmt.Sprintf("%.6f", analytic),
			fmt.Sprintf("%.6f", res.Sup),
			fmt.Sprintf("%.2e", diff),
		)
		if err := data.AddRow(float64(n), float64(f), analytic, res.Sup, diff); err != nil {
			return nil, err
		}
	}
	report := tb.Render() + fmt.Sprintf("\nworst |analytic - empirical| = %.3e\n", worst)
	return &Result{
		ID:     "verify",
		Title:  "Simulator validation: measured CR vs Theorem 1 closed form",
		Report: report,
		Data:   []*trace.Dataset{data},
	}, nil
}

// BetaSweep is the E7 ablation: sweeping the cone slope beta around the
// optimum for several (n, f) pairs shows Lemma 5's objective is
// minimised exactly at beta* = (4f+4)/n - 1.
func BetaSweep() (*Result, error) {
	pairs := [][2]int{{3, 1}, {5, 3}, {11, 5}}
	var report strings.Builder
	var datasets []*trace.Dataset
	for _, pr := range pairs {
		n, f := pr[0], pr[1]
		betaStar, err := analysis.OptimalBeta(n, f)
		if err != nil {
			return nil, err
		}
		best, err := analysis.UpperBoundCR(n, f)
		if err != nil {
			return nil, err
		}
		tb := table.New("beta", "analytic CR (Lemma 5)", "empirical CR", "vs beta*")
		data := &trace.Dataset{
			Name:    fmt.Sprintf("betasweep_n%d_f%d", n, f),
			Columns: []string{"beta", "analytic", "empirical"},
		}
		for _, mult := range []float64{0.25, 0.5, 0.75, 1, 1.5, 2, 4} {
			beta := 1 + (betaStar-1)*mult // keeps beta > 1 for every multiplier
			analytic, err := analysis.ConeCR(beta, n, f)
			if err != nil {
				return nil, err
			}
			res, err := strategyCR(strategy.Cone{Beta: beta}, n, f, compiled.CROptions{XMax: 500})
			if err != nil {
				return nil, err
			}
			marker := fmt.Sprintf("+%.3f", analytic-best)
			if mult == 1 {
				marker = "optimal"
			}
			tb.AddRow(
				fmt.Sprintf("%.4f", beta),
				fmt.Sprintf("%.4f", analytic),
				fmt.Sprintf("%.4f", res.Sup),
				marker,
			)
			if err := data.AddRow(beta, analytic, res.Sup); err != nil {
				return nil, err
			}
		}
		fmt.Fprintf(&report, "A(%d, %d): beta* = %.4f, CR(beta*) = %.4f\n%s\n", n, f, betaStar, best, tb.Render())
		datasets = append(datasets, data)
	}
	return &Result{
		ID:     "betasweep",
		Title:  "Ablation: competitive ratio as a function of the cone slope beta",
		Report: report.String(),
		Data:   datasets,
	}, nil
}
