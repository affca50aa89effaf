// Package trajectory implements the motion model of the paper: a robot
// trajectory is a finite prefix of motion legs (waiting and unit-speed
// moves) followed by an optional infinite tail — either a zig-zag inside
// a cone C_beta (Definition 1) or a one-way ray (the two-group sweep for
// n >= 2f+2).
//
// All queries are exact (closed-form) rather than time-stepped: a
// trajectory answers "where are you at time t" and "when do you first
// visit x" without discretisation error beyond float64 rounding.
package trajectory

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"linesearch/internal/geom"
)

// contiguityTol absorbs rounding when checking that consecutive legs and
// the tail anchor meet exactly.
const contiguityTol = 1e-9

// MaxTailSegments bounds tail enumeration as a guard against runaway
// loops on malformed queries; geometric growth means real queries need
// only O(log |x|) segments.
const MaxTailSegments = 100000

// Tail is an infinite continuation of a trajectory. Implementations are
// ZigZag (cone-bounded search) and Ray (one-way sweep).
type Tail interface {
	// Anchor returns the space–time point where the tail begins.
	Anchor() geom.Point
	// PositionAt returns the position at time t >= Anchor().T.
	PositionAt(t float64) (float64, error)
	// FirstVisit returns the earliest time >= Anchor().T at which the
	// tail stands on x. ok is false if the tail never visits x.
	FirstVisit(x float64) (t float64, ok bool)
	// VisitsUntil returns every visit of x at time <= tmax, ascending.
	VisitsUntil(x, tmax float64) []float64
	// SegmentsUntil returns the tail's motion segments with start time
	// <= tmax, in order. Used for plotting and validation.
	SegmentsUntil(tmax float64) []geom.Segment
	// Validate checks the tail's internal consistency.
	Validate() error
}

// Trajectory is the full motion plan of one robot: contiguous finite
// legs followed by an optional infinite tail anchored at the last leg's
// endpoint. The zero value is invalid; use New.
type Trajectory struct {
	legs []geom.Segment
	tail Tail
}

// New builds a trajectory from legs and an optional tail (nil for a
// finite trajectory, in which case the robot halts forever at the final
// leg's endpoint). The legs must be contiguous, kinematically valid and
// start at time >= 0; a non-nil tail must be anchored at the end of the
// last leg (or constitute the entire trajectory if legs is empty).
func New(legs []geom.Segment, tail Tail) (*Trajectory, error) {
	tr := &Trajectory{legs: append([]geom.Segment(nil), legs...), tail: tail}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Must is New for statically known inputs; it panics on error.
func Must(legs []geom.Segment, tail Tail) *Trajectory {
	tr, err := New(legs, tail)
	if err != nil {
		panic(err)
	}
	return tr
}

// Validate checks the trajectory's kinematic and structural invariants.
func (tr *Trajectory) Validate() error { return Check(tr.legs, tr.tail) }

// Check returns the error New would return for legs and tail, without
// building the trajectory.
func Check(legs []geom.Segment, tail Tail) error {
	if len(legs) == 0 && tail == nil {
		return errors.New("trajectory: empty (no legs, no tail)")
	}
	for i, leg := range legs {
		if err := leg.Validate(); err != nil {
			return fmt.Errorf("leg %d: %w", i, err)
		}
		if i == 0 {
			if leg.From.T < 0 {
				return fmt.Errorf("leg 0 starts at negative time %g", leg.From.T)
			}
			continue
		}
		prev := legs[i-1].To
		if math.Abs(prev.X-leg.From.X) > contiguityTol || math.Abs(prev.T-leg.From.T) > contiguityTol {
			return fmt.Errorf("leg %d start %v does not continue leg %d end %v", i, leg.From, i-1, prev)
		}
	}
	if tail != nil {
		if err := tail.Validate(); err != nil {
			return fmt.Errorf("tail: %w", err)
		}
		a := tail.Anchor()
		var end geom.Point
		if len(legs) > 0 {
			end = legs[len(legs)-1].To
		} else {
			end = a // tail-only trajectory anchors itself
		}
		if math.Abs(a.X-end.X) > contiguityTol || math.Abs(a.T-end.T) > contiguityTol {
			return fmt.Errorf("tail anchor %v does not continue final leg end %v", a, end)
		}
		if a.T < 0 {
			return fmt.Errorf("tail anchors at negative time %g", a.T)
		}
	}
	return nil
}

// Legs returns the finite prefix legs. The slice is the trajectory's
// own, capped at its length; callers must not modify its elements.
func (tr *Trajectory) Legs() []geom.Segment { return tr.legs[:len(tr.legs):len(tr.legs)] }

// TailOf returns the trajectory's infinite tail, or nil for a finite
// trajectory.
func (tr *Trajectory) TailOf() Tail { return tr.tail }

// PositionAt returns the position at time t of a robot that runs legs
// and then tail (nil when it halts at the final leg's end), the parts
// of a trajectory as Legs and TailOf return them. For t before the
// start an error is returned; a halted robot stays at its final
// position.
func PositionAt(legs []geom.Segment, tail Tail, t float64) (float64, error) {
	var start geom.Point
	if len(legs) > 0 {
		start = legs[0].From
	} else {
		start = tail.Anchor()
	}
	if t < start.T {
		return 0, fmt.Errorf("trajectory: time %g precedes start %g", t, start.T)
	}
	if len(legs) > 0 && t <= legs[len(legs)-1].To.T {
		// Binary search for the first leg ending at or after t.
		i := sort.Search(len(legs), func(i int) bool { return legs[i].To.T >= t })
		return legs[i].PositionAt(t)
	}
	if tail != nil {
		return tail.PositionAt(t)
	}
	return legs[len(legs)-1].To.X, nil
}

// FirstVisit returns the earliest time the robot stands on position x,
// with ok reporting whether such a time exists.
func (tr *Trajectory) FirstVisit(x float64) (float64, bool) {
	for _, leg := range tr.legs {
		if t, ok := leg.FirstVisit(x); ok {
			return t, true
		}
	}
	if tr.tail != nil {
		return tr.tail.FirstVisit(x)
	}
	return 0, false
}

// VisitsUntil returns every time <= tmax at which a robot that runs
// legs and then tail (nil when it halts), the parts of a trajectory as
// Legs and TailOf return them, stands on x, in ascending order. Contact
// instants shared by two adjacent legs (a turning point at x) are
// reported once.
func VisitsUntil(legs []geom.Segment, tail Tail, x, tmax float64) []float64 {
	var out []float64
	for _, leg := range legs {
		if leg.From.T > tmax {
			break
		}
		if v, ok := leg.FirstVisit(x); ok && v <= tmax {
			out = append(out, v)
		}
	}
	if tail != nil {
		out = append(out, tail.VisitsUntil(x, tmax)...)
	}
	return dedupeAscending(out)
}

// SegmentsUntil returns the trajectory's motion segments with start time
// <= tmax: the finite legs followed by tail segments.
func (tr *Trajectory) SegmentsUntil(tmax float64) []geom.Segment {
	return SegmentsUntil(tr.legs, tr.tail, tmax)
}

// SegmentsUntil returns the motion segments with start time <= tmax of
// a robot that runs legs and then tail (nil when it halts): the legs
// followed by tail segments.
func SegmentsUntil(legs []geom.Segment, tail Tail, tmax float64) []geom.Segment {
	var out []geom.Segment
	for _, leg := range legs {
		if leg.From.T > tmax {
			return out
		}
		out = append(out, leg)
	}
	if tail != nil {
		out = append(out, tail.SegmentsUntil(tmax)...)
	}
	return out
}

// dedupeAscending sorts ts and collapses values closer than
// contiguityTol, which arise when a visit falls exactly on a junction
// between two legs.
func dedupeAscending(ts []float64) []float64 {
	if len(ts) < 2 {
		return ts
	}
	sort.Float64s(ts)
	out := ts[:1]
	for _, t := range ts[1:] {
		if t-out[len(out)-1] > contiguityTol {
			out = append(out, t)
		}
	}
	return out
}
