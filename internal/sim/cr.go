package sim

import (
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

func (o CROptions) validate() error {
	if !(o.XMin > 0) {
		return fmt.Errorf("sim: CROptions.XMin must be positive, got %g", o.XMin)
	}
	if o.XMax <= o.XMin {
		return fmt.Errorf("sim: CROptions.XMax (%g) must exceed XMin (%g)", o.XMax, o.XMin)
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

// CRCandidates generates the deterministic candidate list the
// competitive-ratio search evaluates: just beyond every trajectory
// corner within range, then the geometric safety grid on both half
// lines. Exported so the compiled kernel (internal/compiled) can run
// the identical search through its allocation-free evaluator.
func (p *Plan) CRCandidates(opts CROptions) ([]float64, error) {
	opts = opts.WithDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	var out []float64
	inRange := func(x float64) bool {
		a := math.Abs(x)
		return a >= opts.XMin && a <= opts.XMax
	}
	for _, x := range p.cornerPositions(opts.XMin, opts.XMax) {
		if probe := x * (1 + opts.Eps); inRange(probe) {
			out = append(out, probe)
		}
	}
	for _, x := range numeric.Logspace(opts.XMin, opts.XMax, opts.GridPoints) {
		if inRange(x) {
			out = append(out, x)
		}
		if inRange(-x) {
			out = append(out, -x)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sim: no evaluable targets in [%g, %g]", opts.XMin, opts.XMax)
	}
	return out, nil
}

// cornerPositions collects the positions of every trajectory corner
// (segment junction) with xmin <= |x| <= xmax across all robots. These
// are the discontinuity points of the search-time function.
func (p *Plan) cornerPositions(xmin, xmax float64) []float64 {
	// Corners at position x are reached no later than the cone/turning
	// time, which for every strategy here is within a constant factor of
	// |x|; 20*xmax covers all of them with a wide margin.
	const timeFactor = 20
	var out []float64
	for _, tr := range p.trajs {
		segs := tr.SegmentsUntil(timeFactor * xmax)
		for i, s := range segs {
			if i == 0 {
				if a := math.Abs(s.From.X); a >= xmin && a <= xmax {
					out = append(out, s.From.X)
				}
			}
			if a := math.Abs(s.To.X); a >= xmin && a <= xmax {
				out = append(out, s.To.X)
			}
		}
	}
	return out
}

// VisitorsBy returns how many distinct robots have visited position x
// by time t (inclusive). The target at x is guaranteed found by time t
// exactly when this count reaches f+1 — the set of such (x, t) pairs is
// the "tower" region of Figure 4.
func (p *Plan) VisitorsBy(x, t float64) int {
	count := 0
	for _, tr := range p.trajs {
		if ft, ok := tr.FirstVisit(x); ok && ft <= t {
			count++
		}
	}
	return count
}

// Covered reports whether a target at x is guaranteed detected by time
// t under any fault assignment the plan's model allows: the distinct
// visitor count must reach the detection rank (f+1 crash, f+votes
// Byzantine).
func (p *Plan) Covered(x, t float64) bool {
	return p.VisitorsBy(x, t) >= p.model.DetectionRank()
}
