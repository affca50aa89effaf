// Package geom implements the space–time geometry of the paper: points
// (x, t) on the half-plane t >= 0, unit-speed (or slower) motion
// segments, and the cone C_beta that confines every proportional
// schedule.
//
// Throughout, x is a position on the infinite line L and t is time. A
// robot's trajectory is a curve through this half-plane composed of
// segments whose speed |dx/dt| is at most 1 (exactly 1 while moving,
// 0 while waiting).
package geom

import (
	"fmt"
	"math"
)

// Point is a space–time point: position X on the line at time T.
type Point struct {
	X float64 // position on the line
	T float64 // time, must be >= 0 in valid trajectories
}

// String formats the point as (x, t).
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.T) }

// Segment is a directed motion segment from From to To. Time must not
// decrease along a segment; position may change at speed at most 1.
type Segment struct {
	From Point
	To   Point
}

// Duration returns the elapsed time along the segment.
func (s Segment) Duration() float64 { return s.To.T - s.From.T }

// Displacement returns the signed position change along the segment.
func (s Segment) Displacement() float64 { return s.To.X - s.From.X }

// Reverses reports whether next, the segment that follows s, moves
// against s's direction: a corner. A waiting segment (displacement 0)
// reverses nothing.
func (s Segment) Reverses(next Segment) bool { return s.Displacement()*next.Displacement() < 0 }

// Speed returns |displacement| / duration, or 0 for an instantaneous
// segment (which is only valid when the displacement is also 0).
func (s Segment) Speed() float64 {
	d := s.Duration()
	if d == 0 {
		return 0
	}
	return math.Abs(s.Displacement()) / d
}

// speedSlack absorbs float64 rounding when checking the unit-speed
// constraint: a segment computed from closed forms may exceed speed 1 by
// a few ulps.
const speedSlack = 1e-9

// Validate checks the kinematic constraints: time does not run backward
// and speed never exceeds 1 (within rounding).
func (s Segment) Validate() error {
	if math.IsNaN(s.From.X) || math.IsNaN(s.From.T) || math.IsNaN(s.To.X) || math.IsNaN(s.To.T) {
		return fmt.Errorf("geom: segment %v -> %v contains NaN", s.From, s.To)
	}
	if s.To.T < s.From.T {
		return fmt.Errorf("geom: segment %v -> %v runs backward in time", s.From, s.To)
	}
	if math.Abs(s.Displacement()) > s.Duration()*(1+speedSlack)+speedSlack {
		return fmt.Errorf("geom: segment %v -> %v exceeds unit speed", s.From, s.To)
	}
	return nil
}

// PositionAt returns the robot's position at time t, which must lie in
// [From.T, To.T]. Motion along the segment is uniform.
func (s Segment) PositionAt(t float64) (float64, error) {
	if t < s.From.T || t > s.To.T {
		return 0, fmt.Errorf("geom: time %g outside segment [%g, %g]", t, s.From.T, s.To.T)
	}
	d := s.Duration()
	if d == 0 {
		return s.From.X, nil
	}
	frac := (t - s.From.T) / d
	return s.From.X + frac*s.Displacement(), nil
}

// FirstVisit returns the time in [From.T, To.T] at which the segment
// passes through position x, with ok false when it never does. A
// uniform-motion segment crosses x at most once unless it is stationary
// at x, in which case the arrival time From.T is reported. x must lie
// between the endpoints exactly, like the compiled kernel's coverage test.
func (s Segment) FirstVisit(x float64) (t float64, ok bool) {
	disp := s.Displacement()
	if disp == 0 {
		if s.From.X == x {
			return s.From.T, true
		}
		return 0, false
	}
	if x < min(s.From.X, s.To.X) || x > max(s.From.X, s.To.X) {
		return 0, false
	}
	frac := (x - s.From.X) / disp
	return s.From.T + frac*s.Duration(), true
}
