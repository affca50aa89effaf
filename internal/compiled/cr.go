package compiled

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"linesearch/internal/numeric"
)

// CROptions tunes the empirical competitive-ratio search. The zero value
// selects sensible defaults via (*CROptions).WithDefaults.
type CROptions struct {
	// XMin is the minimal target distance (the normalisation of the
	// competitive ratio). Default 1, matching the paper's assumption.
	XMin float64
	// XMax bounds the searched target range [XMin, XMax] on both half
	// lines. It should cover several expansion periods of the plan.
	// Default 1e4 * XMin.
	XMax float64
	// GridPoints is the number of geometrically spaced safety samples
	// per half line, in addition to the turning-point candidates where
	// the supremum is actually attained (Lemma 3). Default 2048.
	GridPoints int
	// Eps is the relative offset used to probe just beyond a turning
	// point, where the ratio function K has its one-sided suprema.
	// Default 1e-9.
	Eps float64
	// Parallelism is the number of worker goroutines evaluating
	// candidates. Default GOMAXPROCS. The result is deterministic and
	// independent of the worker count.
	Parallelism int
}

// WithDefaults fills zero-valued fields with the documented defaults.
func (o CROptions) WithDefaults() CROptions {
	if o.XMin == 0 {
		o.XMin = 1
	}
	if o.XMax == 0 {
		o.XMax = 1e4 * o.XMin
	}
	if o.GridPoints == 0 {
		o.GridPoints = 2048
	}
	if o.Eps == 0 {
		o.Eps = 1e-9
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// validate checks the options. Its texts are the ones the search has
// always reported (sweep cells record them), hence the "sim:" prefix.
func (o CROptions) validate() error {
	if !(o.XMin > 0) {
		return fmt.Errorf("sim: CROptions.XMin must be positive, got %g", o.XMin)
	}
	if o.XMax <= o.XMin {
		return fmt.Errorf("sim: CROptions.XMax (%g) must exceed XMin (%g)", o.XMax, o.XMin)
	}
	if math.IsInf(o.XMax, 1) {
		// 1e4·XMin overflows past XMin ≈ 1.8e304; a search to +Inf takes minutes.
		return fmt.Errorf("sim: CROptions.XMax must be finite, got %g", o.XMax)
	}
	if o.GridPoints < 2 {
		return fmt.Errorf("sim: CROptions.GridPoints must be >= 2, got %d", o.GridPoints)
	}
	if o.Eps <= 0 || o.Eps >= 1 {
		return fmt.Errorf("sim: CROptions.Eps must be in (0, 1), got %g", o.Eps)
	}
	if o.Parallelism < 1 {
		return fmt.Errorf("sim: CROptions.Parallelism must be >= 1, got %d", o.Parallelism)
	}
	return nil
}

// CRResult is the outcome of an empirical competitive-ratio search.
type CRResult struct {
	// Sup is the largest observed ratio SearchTime(x)/|x|.
	Sup float64
	// ArgX is a target position witnessing Sup.
	ArgX float64
	// Candidates is the number of target positions evaluated.
	Candidates int
}

// crTimeFactor bounds the turning times the candidate walk lists: a
// corner at position x is reached no later than its cone or turning
// time, within a constant factor of |x| for every strategy here, and
// crTimeFactor·XMax covers all of them with a wide margin.
const crTimeFactor = 20

// CR measures the plan's empirical competitive ratio: the supremum of
// SearchTime(x)/|x| over XMin <= |x| <= XMax, the first candidate
// attaining it being the witness. By Lemma 3 the ratio decreases
// between turning points and jumps up just past them, so the
// candidates are every robot's corners in range (Walk up to
// crTimeFactor·XMax), each probed at x·(1+Eps), then a geometric
// safety grid on both half lines. Every candidate is evaluated through
// the kernel, one evaluator (and thus zero allocations) per worker.
// It is the one production CR evaluator: MeasureCR, sweep cells and
// the paper experiments. The tests pin it bit for bit to the same
// search over sim trajectories and sim.Plan.SearchTime.
func (p *Plan) CR(opts CROptions) (CRResult, error) {
	opts = opts.WithDefaults()
	if err := opts.validate(); err != nil {
		return CRResult{}, err
	}
	inRange := func(x float64) bool {
		a := math.Abs(x)
		return a >= opts.XMin && a <= opts.XMax
	}
	var candidates []float64
	for i := range p.robots {
		p.Walk(i, crTimeFactor*opts.XMax, 0, func(_, x float64) bool {
			if probe := x * (1 + opts.Eps); inRange(x) && inRange(probe) {
				candidates = append(candidates, probe)
			}
			return true
		})
	}
	for _, x := range numeric.Logspace(opts.XMin, opts.XMax, opts.GridPoints) {
		if inRange(x) {
			candidates = append(candidates, x)
		}
		if inRange(-x) {
			candidates = append(candidates, -x)
		}
	}
	if len(candidates) == 0 {
		return CRResult{}, fmt.Errorf("sim: no evaluable targets in [%g, %g]", opts.XMin, opts.XMax)
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

	res := CRResult{Sup: math.Inf(-1), Candidates: len(candidates)}
	for i, r := range ratios {
		if r > res.Sup {
			res.Sup = r
			res.ArgX = candidates[i]
		}
	}
	return res, nil
}
