package experiments

import (
	"linesearch/internal/adversary"
	"linesearch/internal/compiled"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
)

// ladderGame builds the paper's algorithm A(n, f) and plays the
// Theorem 2 adversary against it.
func ladderGame(n, f int) (adversary.GameResult, error) {
	kernel, err := compiled.FromStrategy(strategy.Proportional{}, n, f)
	if err != nil {
		return adversary.GameResult{}, err
	}
	return adversary.Play(kernel)
}

// strategyCR builds the kernel of st's plan for (n, f) and measures its
// empirical competitive ratio, as the API and the sweeps do.
func strategyCR(st strategy.Strategy, n, f int, opts compiled.CROptions) (compiled.CRResult, error) {
	kernel, err := compiled.FromStrategy(st, n, f)
	if err != nil {
		return compiled.CRResult{}, err
	}
	return kernel.CR(opts)
}

// kernelCR measures the empirical competitive ratio of a plan only the
// exact engine derives (another fault budget, turn costs) through its
// compiled kernel.
func kernelCR(plan *sim.Plan, opts compiled.CROptions) (compiled.CRResult, error) {
	kernel, err := compiled.Compile(plan)
	if err != nil {
		return compiled.CRResult{}, err
	}
	return kernel.CR(opts)
}
