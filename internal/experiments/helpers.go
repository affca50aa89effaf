package experiments

import (
	"fmt"

	"linesearch/internal/adversary"
	"linesearch/internal/compiled"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
)

// ladderGame builds the paper's algorithm A(n, f) and plays the
// Theorem 2 adversary against it.
func ladderGame(n, f int) (adversary.GameResult, error) {
	plan, err := sim.FromStrategy(strategy.Proportional{}, n, f)
	if err != nil {
		return adversary.GameResult{}, err
	}
	return adversary.Play(plan)
}

// kernelCR measures a plan's empirical competitive ratio through the
// compiled kernel, the evaluator the API and the sweeps use.
func kernelCR(plan *sim.Plan, opts sim.CROptions) (sim.CRResult, error) {
	kernel, err := compiled.Compile(plan)
	if err != nil {
		return sim.CRResult{}, fmt.Errorf("compiling plan: %w", err)
	}
	return kernel.CR(plan, opts)
}
