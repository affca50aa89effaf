package linesearch

import (
	"fmt"
	"math"

	"linesearch/internal/analysis"
	"linesearch/internal/strategy"
)

// Option configures a Searcher built by NewSearcher.
type Option func(*searcherConfig) error

type searcherConfig struct {
	strategyName string
	minDistance  float64
	faultModel   string
	votes        int
}

// WithStrategy selects a strategy by name: "proportional" (the paper's
// A(n, f)), "twogroup", "doubling", or "cone:<beta>". The default is the
// paper's recommendation for the pair (n, f).
func WithStrategy(name string) Option {
	return func(c *searcherConfig) error {
		if name == "" {
			return fmt.Errorf("linesearch: empty strategy name")
		}
		c.strategyName = name
		return nil
	}
}

// WithMinDistance declares a known lower bound d > 0 on the target's
// distance from the origin. Zig-zag schedules are dilated so their first
// turning point sits at d, exactly as the paper's Definition 4 assumes
// for d = 1; the competitive ratio over targets with |x| >= d is
// unchanged, but absolute search times for far targets improve because
// no time is wasted below d. The two-group sweep ignores the hint (its
// guarantee holds at every distance).
func WithMinDistance(d float64) Option {
	return func(c *searcherConfig) error {
		if !(d > 0) || math.IsInf(d, 1) {
			return fmt.Errorf("linesearch: minimal target distance must be positive and finite, got %g", d)
		}
		c.minDistance = d
		return nil
	}
}

// WithFaultModel selects the fault model the searcher detects under:
// "crash" (the default, the paper's model — faulty robots never report)
// or "byzantine" (faulty robots may stay silent or lie; detection waits
// for enough truthful confirmations to outvote any liar set). Under
// "byzantine" the configured strategy becomes the crash base of the
// voting-rule family; combining it with an already-byzantine strategy
// name is an error.
func WithFaultModel(model string) Option {
	return func(c *searcherConfig) error {
		switch model {
		case "crash", "byzantine":
			c.faultModel = model
			return nil
		default:
			return fmt.Errorf("linesearch: unknown fault model %q (want crash or byzantine)", model)
		}
	}
}

// WithVotes sets an explicit vote threshold v >= 1 for the Byzantine
// detection rule: a target is accepted after v distinct truthful
// claims (default f+1, the smallest threshold no liar coalition can
// forge). Requires WithFaultModel("byzantine").
func WithVotes(v int) Option {
	return func(c *searcherConfig) error {
		if v < 1 {
			return fmt.Errorf("linesearch: vote threshold must be a positive integer, got %d", v)
		}
		c.votes = v
		return nil
	}
}

// NewSearcher builds a searcher for n robots with up to f faults,
// applying options. Without options it is identical to New.
func NewSearcher(n, f int, opts ...Option) (*Searcher, error) {
	cfg := searcherConfig{minDistance: 1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.votes > 0 && cfg.faultModel != "byzantine" {
		return nil, fmt.Errorf("linesearch: WithVotes requires WithFaultModel(\"byzantine\")")
	}

	var (
		st  strategy.Strategy
		err error
	)
	if cfg.strategyName == "" {
		st, err = strategy.ForPair(n, f)
		// The byzantine wrapper picks its own per-pair base at the
		// effective budget, so a missing strategy stays nil below.
		if cfg.faultModel == "byzantine" {
			st, err = nil, nil
		}
	} else {
		st, err = strategy.Parse(cfg.strategyName)
	}
	if err != nil {
		return nil, err
	}
	if cfg.faultModel == "byzantine" {
		if _, ok := st.(strategy.Byzantine); ok {
			return nil, fmt.Errorf("linesearch: strategy %q already selects the byzantine model", cfg.strategyName)
		}
		st = strategy.Byzantine{Votes: cfg.votes, Base: st}
	}
	st = strategy.WithMinDistance(st, cfg.minDistance)

	s, err := newSearcher(st, n, f)
	if err != nil {
		return nil, err
	}
	s.minDistance = cfg.minDistance
	return s, nil
}

// RobotsNeeded returns the smallest fleet size n that tolerates f
// faults with competitive ratio at most maxCR (per Theorem 1 for the
// proportional regime and the trivial sweep beyond it). maxCR must be
// at least 9, the ratio of the smallest feasible fleet n = f+1 —
// smaller targets require maxCR >= the corresponding Theorem 1 value,
// found by this function's scan; maxCR below every achievable value
// yields an error only when even n = 2f+2 (ratio 1) cannot help, which
// never happens for maxCR >= 1.
func RobotsNeeded(f int, maxCR float64) (int, error) {
	if f < 0 {
		return 0, fmt.Errorf("linesearch: negative fault count %d", f)
	}
	if math.IsNaN(maxCR) {
		return 0, fmt.Errorf("linesearch: competitive ratio bound must be a number, got NaN")
	}
	if maxCR < 1 {
		return 0, fmt.Errorf("linesearch: no algorithm achieves competitive ratio %g < 1", maxCR)
	}
	// CR is nonincreasing in n for fixed f: scan the (finite) range of
	// interesting fleet sizes.
	for n := f + 1; n <= 2*f+2; n++ {
		cr, err := analysis.UpperBoundCR(n, f)
		if err != nil {
			return 0, err
		}
		if cr <= maxCR+1e-12 {
			return n, nil
		}
	}
	return 0, fmt.Errorf("linesearch: internal error: trivial fleet 2f+2 should always achieve ratio 1")
}

// FaultsTolerable returns the largest fault count f that a fleet of n
// robots can tolerate with competitive ratio at most maxCR. It returns
// an error if even f = 0 cannot meet maxCR (only possible for
// maxCR < 1).
func FaultsTolerable(n int, maxCR float64) (int, error) {
	if n < 1 {
		return 0, fmt.Errorf("linesearch: need at least one robot, got %d", n)
	}
	if math.IsNaN(maxCR) {
		return 0, fmt.Errorf("linesearch: competitive ratio bound must be a number, got NaN")
	}
	if maxCR < 1 {
		return 0, fmt.Errorf("linesearch: no algorithm achieves competitive ratio %g < 1", maxCR)
	}
	// CR is nondecreasing in f for fixed n: scan down from the maximum.
	for f := n - 1; f >= 0; f-- {
		cr, err := analysis.UpperBoundCR(n, f)
		if err != nil {
			return 0, err
		}
		if cr <= maxCR+1e-12 {
			return f, nil
		}
	}
	return 0, fmt.Errorf("linesearch: a single fault already exceeds ratio %g with %d robots", maxCR, n)
}
