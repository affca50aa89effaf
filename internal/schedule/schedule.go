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

// Schedule is a realised proportional schedule: one zig-zag robot in
// closed form per robot, all in the same cone.
type Schedule struct {
	n, f   int
	beta   float64
	r      float64
	dmin   float64
	style  StartupStyle
	cone   geom.Cone
	robots []Robot
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
	if err := s.place(func(i int) float64 { return dmin * math.Pow(r, float64(i)) }); err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	return s, nil
}

// NewUniform is the spacing ablation's schedule: n robots in the cone
// with the waiting start-up whose designated turning points
// dmin·(1 + i·(kappa²−1)/n) are spaced evenly across one expansion
// period [dmin, dmin·kappa²) instead of geometrically. Its merged
// turning points are not proportional, so it has no ratio (Ratio
// returns 0). It validates neither the pair nor dmin; an error names
// the robot that cannot be built ("robot i: …") and the caller adds its
// own prefix.
func NewUniform(n, f int, cone geom.Cone, dmin float64) (*Schedule, error) {
	beta := cone.Beta()
	kappa := (beta + 1) / (beta - 1)
	period := kappa * kappa
	s := &Schedule{n: n, f: f, beta: beta, dmin: dmin, cone: cone, style: StartupWait}
	if err := s.place(func(i int) float64 { return dmin * (1 + float64(i)*(period-1)/float64(n)) }); err != nil {
		return nil, err
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

// place sets every robot's closed form: robot a_i's designated turning
// point designated(i) extended backward (Definition 4) to the first
// turning point tau'_i with |tau'_i| below the minimal target distance
// (tau'_0 = dmin for robot a_0 itself). It returns the error building
// the first robot that cannot be built would return, naming the robot.
func (s *Schedule) place(designated func(i int) float64) error {
	s.robots = make([]Robot, s.n)
	for i := range s.robots {
		threshold := s.dmin
		if i == 0 {
			// Robot a_0 anchors exactly at dmin rather than below it.
			threshold = math.Nextafter(s.dmin, math.Inf(1))
		}
		rb, err := newRobot(s.cone, designated(i), threshold, s.style)
		if err == nil {
			s.robots[i] = rb
			err = s.robots[i].check()
		}
		if err != nil {
			return fmt.Errorf("robot %d: %w", i, err)
		}
	}
	return nil
}

// Robot is one zig-zag robot in closed form (Definition 4): its zig-zag
// tail, which holds its cone and its anchor (its first turning point on
// the cone's boundary), and the style of its start-up from the origin
// to that anchor. Its trajectory and the compiled kernel's view of it
// both derive from these alone.
type Robot struct {
	Tail  trajectory.ZigZag
	style StartupStyle
}

// newRobot returns the robot of a zig-zag schedule in the given cone
// whose designated positive turning point is extended backward inside
// the cone (Definition 4) until its magnitude drops strictly below
// threshold. It refuses a designated point or threshold that is not
// positive and finite, an unknown style and an anchor no zig-zag can
// start from; check reports what else the robot's trajectory would
// refuse.
func newRobot(cone geom.Cone, designated, threshold float64, style StartupStyle) (Robot, error) {
	if !(designated > 0) || math.IsInf(designated, 1) {
		return Robot{}, fmt.Errorf("schedule: designated turning point must be positive and finite, got %g", designated)
	}
	if !(threshold > 0) || math.IsInf(threshold, 1) {
		return Robot{}, fmt.Errorf("schedule: backward-extension threshold must be positive and finite, got %g", threshold)
	}
	anchor := cone.BoundaryPoint(designated)
	for math.Abs(anchor.X) >= threshold {
		anchor = cone.PrevTurn(anchor)
	}
	if style != StartupWait && style != StartupSlow {
		return Robot{}, fmt.Errorf("schedule: unknown startup style %d", int(style))
	}
	tail, err := trajectory.MakeZigZag(cone, anchor)
	if err != nil {
		return Robot{}, err
	}
	return Robot{Tail: tail, style: style}, nil
}

// AppendLegs appends the robot's start-up legs, from the origin to its
// anchor, to dst: the waiting or the slow prefix, by its style.
func (rb *Robot) AppendLegs(dst []geom.Segment) []geom.Segment {
	x := rb.Tail.Anchor().X
	if rb.style == StartupSlow {
		return appendSlowStartLegs(dst, rb.Tail.Cone(), x)
	}
	return appendStartupLegs(dst, rb.Tail.Cone(), x)
}

// check returns the error build would return, without building the
// trajectory.
func (rb *Robot) check() error {
	var buf [2]geom.Segment
	return trajectory.Check(rb.AppendLegs(buf[:0]), &rb.Tail)
}

// build builds the robot's trajectory: its start-up legs, then its
// zig-zag tail, which the trajectory shares with rb. trajectory.New
// copies the legs, so they are appended to a stack buffer.
func (rb *Robot) build() (*trajectory.Trajectory, error) {
	var buf [2]geom.Segment
	return trajectory.New(rb.AppendLegs(buf[:0]), &rb.Tail)
}

// appendStartupLegs appends the Definition-4 prefix for a robot whose
// first cone turning point is at position x to dst: wait at the origin
// until (beta-1)*|x|, then move at unit speed to reach x exactly when
// the cone boundary passes over it (time beta*|x|).
func appendStartupLegs(dst []geom.Segment, cone geom.Cone, x float64) []geom.Segment {
	depart := (cone.Beta() - 1) * math.Abs(x)
	origin := geom.Point{X: 0, T: 0}
	departure := geom.Point{X: 0, T: depart}
	arrival := cone.BoundaryPoint(x)
	if depart == 0 {
		return append(dst, geom.Segment{From: origin, To: arrival})
	}
	return append(dst,
		geom.Segment{From: origin, To: departure},
		geom.Segment{From: departure, To: arrival})
}

// appendSlowStartLegs appends the alternative prefix the paper's
// Section 1 alludes to ("start at different times or move at different speeds"): instead
// of waiting at the origin, the robot departs immediately at the reduced
// constant speed 1/beta, reaching its first turning point x at the same
// instant beta*|x| as the waiting prefix. From the cone boundary onward
// the two realisations are identical, so the competitive ratio is
// unchanged; only the motion before the first turning point differs.
func appendSlowStartLegs(dst []geom.Segment, cone geom.Cone, x float64) []geom.Segment {
	return append(dst, geom.Segment{From: geom.Point{X: 0, T: 0}, To: cone.BoundaryPoint(x)})
}

// Beta returns the cone slope.
func (s *Schedule) Beta() float64 { return s.beta }

// Ratio returns the proportionality ratio r of Lemma 2, 0 for the
// uniform spacing.
func (s *Schedule) Ratio() float64 { return s.r }

// Cone returns the confining cone C_beta.
func (s *Schedule) Cone() geom.Cone { return s.cone }

// N returns the number of robots.
func (s *Schedule) N() int { return s.n }

// Robot returns robot i's closed form, 0 <= i < N(). The robot is the
// schedule's own; callers must not modify it.
func (s *Schedule) Robot(i int) *Robot { return &s.robots[i] }

// Trajectories builds the robots' trajectories, indexed by robot. Each
// trajectory shares its zig-zag tail with the schedule's robot.
func (s *Schedule) Trajectories() []*trajectory.Trajectory {
	trajs := make([]*trajectory.Trajectory, len(s.robots))
	for i := range s.robots {
		tr, err := s.robots[i].build()
		if err != nil {
			// NewStyled checked every robot with Robot.check, which
			// returns build's error.
			panic(fmt.Sprintf("schedule: robot %d: %v", i, err))
		}
		trajs[i] = tr
	}
	return trajs
}
