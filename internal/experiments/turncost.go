package experiments

import (
	"fmt"
	"math"

	"linesearch/internal/analysis"
	"linesearch/internal/compiled"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
	"linesearch/internal/table"
	"linesearch/internal/trace"
)

func init() {
	register("turncost", TurnCost)
}

// turnCostPair is the (n, f) pair the extension experiment studies.
const (
	turnCostN = 3
	turnCostF = 1
)

// TurnCost explores the turn-cost extension (Demaine, Fekete, Gal —
// reference [19] of the paper — transplanted to parallel faulty
// search): every direction reversal pauses the robot for c time units.
// The experiment sweeps the cone slope beta for several costs c.
//
// Finding: the worst-case ratio rises by exactly 2c for every beta, and
// the optimal slope stays at the paper's beta*. The reason is visible in
// the mechanics: relative to target distance, pause time vanishes for
// far targets (the visitor count before reaching x grows only
// logarithmically), so the supremum stays pinned just past the minimal
// distance, where the (f+1)-st distinct visitor has made exactly two
// reversals — an additive, beta-independent 2c. The competitive-ratio
// objective is therefore robust to turn cost, unlike the single-robot
// bounded-distance setting of [19] where turn cost reshapes the optimal
// schedule.
func TurnCost() (*Result, error) {
	betaStar, err := analysis.OptimalBeta(turnCostN, turnCostF)
	if err != nil {
		return nil, err
	}
	costs := []float64{0, 0.5, 2, 8}
	betas := []float64{1.15, 1.3, 1.45, betaStar, 1.9, 2.2, 2.6, 3}

	headers := []string{"beta"}
	for _, c := range costs {
		headers = append(headers, fmt.Sprintf("CR @ c=%g", c))
	}
	tb := table.New(headers...)
	data := &trace.Dataset{Name: "turncost", Columns: []string{"beta", "cost", "cr"}}

	const xmax = 200.0
	crs := make([][]float64, len(betas))
	for bi, beta := range betas {
		crs[bi] = make([]float64, len(costs))
		plan, err := sim.FromStrategy(strategy.Cone{Beta: beta}, turnCostN, turnCostF)
		if err != nil {
			return nil, err
		}
		for ci, c := range costs {
			// Horizon: base search time plus a generous pause budget.
			horizon := 40*xmax + 60*c*xmax
			derived, err := plan.WithTurnCost(c, horizon)
			if err != nil {
				return nil, err
			}
			res, err := kernelCR(derived, compiled.CROptions{XMax: xmax, GridPoints: 512})
			if err != nil {
				return nil, err
			}
			crs[bi][ci] = res.Sup
			if err := data.AddRow(beta, c, res.Sup); err != nil {
				return nil, err
			}
		}
	}

	// Mark the per-cost minimum.
	argmin := make([]int, len(costs))
	for ci := range costs {
		best := math.Inf(1)
		for bi := range betas {
			if crs[bi][ci] < best {
				best = crs[bi][ci]
				argmin[ci] = bi
			}
		}
	}
	for bi, beta := range betas {
		row := []string{fmt.Sprintf("%.4f", beta)}
		for ci := range costs {
			cell := fmt.Sprintf("%.4f", crs[bi][ci])
			if argmin[ci] == bi {
				cell += " *"
			}
			row = append(row, cell)
		}
		tb.AddRow(row...)
	}

	report := fmt.Sprintf("turn-cost extension on A(%d, %d)-style cone schedules (beta* = %.4f)\n", turnCostN, turnCostF, betaStar) +
		tb.Render() +
		"\n* = best beta for that cost. c = 0 reproduces Lemma 5. The measured ratio is\n" +
		"base + 2c at every beta: pauses vanish relative to distance for far targets,\n" +
		"so the supremum stays just past the minimal distance where the (f+1)-st\n" +
		"visitor has made exactly two reversals. The optimal beta* is unchanged —\n" +
		"the competitive-ratio objective is robust to turn cost.\n"
	return &Result{
		ID:     "turncost",
		Title:  "Extension: turn-cost search ([19]) under parallel faulty robots",
		Report: report,
		Data:   []*trace.Dataset{data},
	}, nil
}
