// Package schedule realises the paper's proportional schedules as
// concrete trajectories: S_beta(n), the schedule of n robots zig-zagging
// in the cone C_beta whose merged positive turning points form a
// geometric sequence of ratio r = kappa^(2/n) (Definition 2), and the
// algorithm A(n, f) of Definition 4 that prefixes each robot with a
// start-up leg from the origin.
package schedule

import (
	"fmt"
	"math"

	"linesearch/internal/analysis"
	"linesearch/internal/geom"
	"linesearch/internal/trajectory"
)

// Schedule is a realised proportional schedule: one trajectory per
// robot, all zig-zagging in the same cone.
type Schedule struct {
	n, f  int
	beta  float64
	r     float64
	dmin  float64
	style StartupStyle
	cone  geom.Cone
	trajs []*trajectory.Trajectory
}

// New constructs the proportional schedule algorithm for n robots and f
// faults using cone slope beta (which need not be optimal — the beta
// ablation depends on that freedom). Robot a_0 anchors its first turning
// point at tau_0 = +1; robot a_i anchors at tau_i = r^i extended
// backward per Definition 4. The minimal target distance is 1.
func New(n, f int, beta float64) (*Schedule, error) {
	return NewScaled(n, f, beta, 1)
}

// StartupStyle selects how a robot covers the stretch from the origin
// to its first cone turning point. Both styles put the robot on the
// cone boundary at the same instant, so they share every guarantee;
// they realise the two options mentioned in the paper's Section 1
// (staggered starts vs reduced speeds).
type StartupStyle int

// Startup styles.
const (
	// StartupWait is Definition 4's prefix: wait at the origin until
	// (beta-1)*|tau'|, then move at unit speed.
	StartupWait StartupStyle = iota + 1
	// StartupSlow departs immediately at constant speed 1/beta.
	StartupSlow
)

// String returns a short label.
func (st StartupStyle) String() string {
	switch st {
	case StartupWait:
		return "wait"
	case StartupSlow:
		return "slow"
	default:
		return fmt.Sprintf("StartupStyle(%d)", int(st))
	}
}

// NewScaled is New with an explicit minimal target distance dmin > 0:
// the whole schedule is scaled so that robot a_0's first turning point
// is at dmin (the paper's Definition 4 assumes dmin = 1; the discussion
// preceding it notes that either the minimal distance must be known or
// an additive constant appears in the competitive ratio — scaling the
// schedule is exactly how that knowledge is used). The competitive
// ratio over targets with |x| >= dmin is independent of dmin.
func NewScaled(n, f int, beta, dmin float64) (*Schedule, error) {
	return NewStyled(n, f, beta, dmin, StartupWait)
}

// NewStyled is NewScaled with an explicit startup style.
func NewStyled(n, f int, beta, dmin float64, style StartupStyle) (*Schedule, error) {
	if style != StartupWait && style != StartupSlow {
		return nil, fmt.Errorf("schedule: unknown startup style %d", int(style))
	}
	if err := analysis.ValidateProportional(n, f); err != nil {
		return nil, err
	}
	if !(dmin > 0) || math.IsInf(dmin, 1) {
		return nil, fmt.Errorf("schedule: minimal target distance must be positive and finite, got %g", dmin)
	}
	cone, err := geom.NewCone(beta)
	if err != nil {
		return nil, err
	}
	r, err := analysis.ProportionalityRatio(beta, n)
	if err != nil {
		return nil, err
	}
	s := &Schedule{n: n, f: f, beta: beta, r: r, dmin: dmin, cone: cone, style: style}
	s.trajs = make([]*trajectory.Trajectory, 0, n)
	for i := 0; i < n; i++ {
		tr, err := s.robotTrajectory(i)
		if err != nil {
			return nil, fmt.Errorf("schedule: robot %d: %w", i, err)
		}
		s.trajs = append(s.trajs, tr)
	}
	return s, nil
}

// NewOptimal constructs A(n, f): the proportional schedule at the
// competitive-ratio-minimising slope beta* = (4f+4)/n - 1 (Theorem 1).
func NewOptimal(n, f int) (*Schedule, error) {
	beta, err := analysis.OptimalBeta(n, f)
	if err != nil {
		return nil, err
	}
	return New(n, f, beta)
}

// robotTrajectory builds robot a_i's trajectory: the backward extension
// of Definition 4 to the first turning point tau'_i with |tau'_i| below
// the minimal target distance (tau'_0 = dmin for robot a_0 itself), a
// waiting leg at the origin, a unit-speed leg to the anchor, and the
// infinite zig-zag tail.
func (s *Schedule) robotTrajectory(i int) (*trajectory.Trajectory, error) {
	designated := s.dmin * math.Pow(s.r, float64(i))
	threshold := s.dmin
	if i == 0 {
		// Robot a_0 anchors exactly at dmin rather than below it.
		threshold = math.Nextafter(s.dmin, math.Inf(1))
	}
	return RobotFromTurningPointStyled(s.cone, designated, threshold, s.style)
}

// RobotFromTurningPoint builds a full robot trajectory for a zig-zag
// schedule in the given cone: the robot's designated positive turning
// point is extended backward inside the cone (Definition 4) until its
// magnitude drops strictly below threshold; the robot then waits at the
// origin, travels at unit speed to that anchor, and zig-zags forever.
// Non-proportional schedules (the spacing ablation) reuse this builder
// with their own designated turning points.
func RobotFromTurningPoint(cone geom.Cone, designated, threshold float64) (*trajectory.Trajectory, error) {
	return RobotFromTurningPointStyled(cone, designated, threshold, StartupWait)
}

// RobotFromTurningPointStyled is RobotFromTurningPoint with an explicit
// startup style for the prefix from the origin to the anchor.
func RobotFromTurningPointStyled(cone geom.Cone, designated, threshold float64, style StartupStyle) (*trajectory.Trajectory, error) {
	if !(designated > 0) || math.IsInf(designated, 1) {
		return nil, fmt.Errorf("schedule: designated turning point must be positive and finite, got %g", designated)
	}
	if !(threshold > 0) || math.IsInf(threshold, 1) {
		return nil, fmt.Errorf("schedule: backward-extension threshold must be positive and finite, got %g", threshold)
	}
	anchor := cone.BoundaryPoint(designated)
	for math.Abs(anchor.X) >= threshold {
		anchor = cone.PrevTurn(anchor)
	}
	var legs []geom.Segment
	switch style {
	case StartupWait:
		legs = StartupLegs(cone, anchor.X)
	case StartupSlow:
		legs = SlowStartLegs(cone, anchor.X)
	default:
		return nil, fmt.Errorf("schedule: unknown startup style %d", int(style))
	}
	tail, err := trajectory.NewZigZag(cone, anchor)
	if err != nil {
		return nil, err
	}
	return trajectory.New(legs, tail)
}

// StartupLegs returns the Definition-4 prefix for a robot whose first
// cone turning point is at position x: wait at the origin until
// (beta-1)*|x|, then move at unit speed to reach x exactly when the cone
// boundary passes over it (time beta*|x|).
func StartupLegs(cone geom.Cone, x float64) []geom.Segment {
	depart := (cone.Beta() - 1) * math.Abs(x)
	origin := geom.Point{X: 0, T: 0}
	departure := geom.Point{X: 0, T: depart}
	arrival := cone.BoundaryPoint(x)
	if depart == 0 {
		return []geom.Segment{{From: origin, To: arrival}}
	}
	return []geom.Segment{
		{From: origin, To: departure},
		{From: departure, To: arrival},
	}
}

// SlowStartLegs is the alternative prefix the paper's Section 1 alludes
// to ("start at different times or move at different speeds"): instead
// of waiting at the origin, the robot departs immediately at the reduced
// constant speed 1/beta, reaching its first turning point x at the same
// instant beta*|x| as the waiting prefix. From the cone boundary onward
// the two realisations are identical, so the competitive ratio is
// unchanged; only the motion before the first turning point differs.
func SlowStartLegs(cone geom.Cone, x float64) []geom.Segment {
	return []geom.Segment{{From: geom.Point{X: 0, T: 0}, To: cone.BoundaryPoint(x)}}
}

// Beta returns the cone slope.
func (s *Schedule) Beta() float64 { return s.beta }

// Ratio returns the proportionality ratio r of Lemma 2.
func (s *Schedule) Ratio() float64 { return s.r }

// Cone returns the confining cone C_beta.
func (s *Schedule) Cone() geom.Cone { return s.cone }

// Trajectories returns the robots' trajectories, indexed by robot.
// The slice is a copy; the trajectories themselves are immutable.
func (s *Schedule) Trajectories() []*trajectory.Trajectory {
	return append([]*trajectory.Trajectory(nil), s.trajs...)
}
