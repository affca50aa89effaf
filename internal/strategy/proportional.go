package strategy

import (
	"fmt"

	"linesearch/internal/analysis"
	"linesearch/internal/schedule"
	"linesearch/internal/trajectory"
)

// Proportional is the paper's algorithm A(n, f): the proportional
// schedule S_beta(n) at the optimal cone slope beta* = (4f+4)/n - 1
// (Definition 4, Theorem 1). Valid in the regime f < n < 2f+2.
type Proportional struct {
	// MinDistance is the known minimal target distance the schedule is
	// scaled for; 0 selects the paper's normalisation of 1.
	MinDistance float64
}

var _ Strategy = Proportional{}

// Name implements Strategy.
func (Proportional) Name() string { return "proportional" }

// Description implements Strategy.
func (Proportional) Description() string {
	return "A(n,f): proportional schedule at the optimal cone slope beta* (Theorem 1)"
}

var _ Scheduler = Proportional{}

// Build implements Strategy.
func (p Proportional) Build(n, f int) ([]*trajectory.Trajectory, error) {
	return trajectories(p.Schedule(n, f))
}

// Schedule implements Scheduler.
func (p Proportional) Schedule(n, f int) (*schedule.Schedule, bool, error) {
	beta, err := analysis.OptimalBeta(n, f)
	if err != nil {
		return nil, true, err
	}
	s, err := schedule.NewScaled(n, f, beta, minDistance(p.MinDistance))
	return s, true, err
}

// trajectories returns the trajectories of a Schedule result, or its
// error.
func trajectories(s *schedule.Schedule, _ bool, err error) ([]*trajectory.Trajectory, error) {
	if err != nil {
		return nil, err
	}
	return s.Trajectories(), nil
}

// minDistance applies the zero-value default of 1.
func minDistance(d float64) float64 {
	if d == 0 {
		return 1
	}
	return d
}

// AnalyticCR implements Strategy: the Theorem 1 bound, which the
// simulator confirms is exact for this construction.
func (Proportional) AnalyticCR(n, f int) (float64, bool) {
	if err := analysis.ValidateProportional(n, f); err != nil {
		return 0, false
	}
	cr, err := analysis.UpperBoundCR(n, f)
	if err != nil {
		return 0, false
	}
	return cr, true
}

// Cone is the proportional schedule S_beta(n) at an explicit,
// possibly suboptimal cone slope. It exists for the beta ablation
// (experiment E7): sweeping Beta around beta* shows the Theorem 1
// optimisation is necessary.
type Cone struct {
	// Beta is the cone slope; must exceed 1.
	Beta float64
	// MinDistance is the known minimal target distance; 0 selects 1.
	MinDistance float64
}

var _ Strategy = Cone{}

// Name implements Strategy.
func (c Cone) Name() string { return fmt.Sprintf("cone:%g", c.Beta) }

// Description implements Strategy.
func (c Cone) Description() string {
	return fmt.Sprintf("proportional schedule with explicit cone slope beta = %g", c.Beta)
}

var _ Scheduler = Cone{}

// Build implements Strategy.
func (c Cone) Build(n, f int) ([]*trajectory.Trajectory, error) {
	return trajectories(c.Schedule(n, f))
}

// Schedule implements Scheduler.
func (c Cone) Schedule(n, f int) (*schedule.Schedule, bool, error) {
	s, err := schedule.NewScaled(n, f, c.Beta, minDistance(c.MinDistance))
	return s, true, err
}

// AnalyticCR implements Strategy: the Lemma 5 value at this beta.
func (c Cone) AnalyticCR(n, f int) (float64, bool) {
	cr, err := analysis.ConeCR(c.Beta, n, f)
	if err != nil {
		return 0, false
	}
	return cr, true
}
