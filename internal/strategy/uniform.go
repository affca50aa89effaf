package strategy

import (
	"fmt"

	"linesearch/internal/analysis"
	"linesearch/internal/geom"
	"linesearch/internal/schedule"
	"linesearch/internal/trajectory"
)

// UniformCone is the spacing ablation for Definition 2: the n robots
// share the cone C_beta exactly as in a proportional schedule, but
// their designated turning points are spaced *uniformly* (arithmetic
// progression) across one expansion period [1, kappa^2) instead of
// geometrically (tau_i = r^i). The merged turning-point sequence is
// then not proportional, its worst gap ratio exceeds r, and the
// measured competitive ratio is strictly worse than the proportional
// schedule at the same beta — the empirical justification for the
// paper's proportionality requirement.
type UniformCone struct {
	// Beta is the cone slope; must exceed 1.
	Beta float64
	// MinDistance is the known minimal target distance; 0 selects 1.
	MinDistance float64
}

var _ Strategy = UniformCone{}

// Name implements Strategy.
func (u UniformCone) Name() string { return fmt.Sprintf("uniform:%g", u.Beta) }

// Description implements Strategy.
func (u UniformCone) Description() string {
	return fmt.Sprintf("ablation: uniformly spaced turning points in cone C_%g (not proportional)", u.Beta)
}

var _ Scheduler = UniformCone{}

// Build implements Strategy.
func (u UniformCone) Build(n, f int) ([]*trajectory.Trajectory, error) {
	return trajectories(u.Schedule(n, f))
}

// Schedule implements Scheduler: schedule.NewUniform's robots, which
// start like a proportional schedule's and differ only in their
// designated turning points.
func (u UniformCone) Schedule(n, f int) (*schedule.Schedule, bool, error) {
	if err := analysis.ValidateProportional(n, f); err != nil {
		return nil, true, err
	}
	if !(u.Beta > 1) {
		return nil, true, fmt.Errorf("strategy: uniform cone requires beta > 1, got %g", u.Beta)
	}
	cone, err := geom.NewCone(u.Beta)
	if err != nil {
		return nil, true, err
	}
	s, err := schedule.NewUniform(n, f, cone, minDistance(u.MinDistance))
	if err != nil {
		return nil, true, fmt.Errorf("strategy: uniform %w", err)
	}
	return s, true, nil
}

// AnalyticCR implements Strategy: no closed form is known for the
// uniform spacing (that is the point of the ablation), so callers must
// measure.
func (UniformCone) AnalyticCR(n, f int) (float64, bool) { return 0, false }
