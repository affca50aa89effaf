package compiled

import (
	"context"
	"math"

	"linesearch/internal/numeric"
	"linesearch/internal/sim"
)

// CR measures the plan's empirical competitive ratio over the
// CRCandidates of src, the sim.Plan it compiles (or whose schedule it
// was compiled from): the supremum of SearchTime(x)/|x|, the first
// candidate attaining it being the witness. It evaluates every
// candidate through the compiled kernel, one evaluator (and thus zero
// allocations) per worker instead of a fresh []Visit and sort per
// target. It is the one production CR evaluator: sweep cells,
// MeasureCR and the paper experiments. The tests pin it to the same
// search over sim.Plan.SearchTime (EmpiricalCR in internal/sim's
// tests, simCR in this package's).
func (p *Plan) CR(src *sim.Plan, opts sim.CROptions) (sim.CRResult, error) {
	opts = opts.WithDefaults()
	candidates, err := src.CRCandidates(opts)
	if err != nil {
		return sim.CRResult{}, err
	}

	ratios := make([]float64, len(candidates))
	evals := make([]*Evaluator, min(opts.Parallelism, len(candidates)))
	for w := range evals {
		evals[w] = p.evals.get()
	}
	// Evaluating a candidate cannot fail, so ForEach returns nil.
	_ = numeric.ForEach(context.Background(), len(candidates), len(evals), func(w, i int) error {
		ratios[i] = evals[w].SearchTime(candidates[i]) / math.Abs(candidates[i])
		return nil
	})
	for _, e := range evals {
		p.evals.put(e)
	}

	res := sim.CRResult{Sup: math.Inf(-1), Candidates: len(candidates)}
	for i, r := range ratios {
		if r > res.Sup {
			res.Sup = r
			res.ArgX = candidates[i]
		}
	}
	return res, nil
}
