package compiled

import (
	"linesearch/internal/geom"
	"linesearch/internal/trajectory"
)

// Walk calls emit with robot i's corner points up to the horizon
// tmax, in order, as the walk over its trajectory's motion segments
// lists them (trajectory.Trajectory.SegmentsUntil): the start point,
// then the end of every segment that starts at or before tmax, so the
// last point may lie past tmax. It emits at most limit points (all
// when limit <= 0) and none after emit returns false.
//
// The start-up legs are listed unclamped, as the trajectory holds them
// or the schedule's closed form gives them; a zig-zag tail's turns come
// from its cone's power table, then, past the table, from the tail
// itself. The walk reproduces the segment walk's
// arithmetic where the kernel's differs: a turn's time is beta·|x|, not
// raised to the anchor's kept time, and no corner is clamped or
// dropped as cursor.keep does.
func (p *Plan) Walk(i int, tmax float64, limit int, emit func(t, x float64) bool) {
	w := walk{tmax: tmax, left: limit, emit: emit}
	if limit <= 0 {
		w.left = -1
	}
	var buf [2]geom.Segment
	legs, tail := p.source(i, &buf)
	if w.legs(legs, tail) {
		w.tail(&p.robots[i], tail)
	}
}

// Position returns robot i's position at time t from the legs and tail Walk reads.
func (p *Plan) Position(i int, t float64) (float64, error) {
	var buf [2]geom.Segment
	legs, tail := p.source(i, &buf)
	return trajectory.PositionAt(legs, tail, t)
}

// walk is one robot's corner walk in progress.
type walk struct {
	tmax float64
	// left counts the points still to emit; it is negative without a
	// limit.
	left int
	emit func(t, x float64) bool
}

// put emits one point and reports whether the walk goes on.
func (w *walk) put(t, x float64) bool {
	w.left--
	return w.emit(t, x) && w.left != 0
}

// legs walks a robot's start (its first leg's, or without legs its
// tail's anchor), then the end of each leg that starts within the
// horizon. It reports whether the walk goes on past the last leg.
func (w *walk) legs(legs []geom.Segment, tail trajectory.Tail) bool {
	var s geom.Point
	if len(legs) > 0 {
		s = legs[0].From
	} else {
		s = tail.Anchor()
	}
	if !w.put(s.T, s.X) {
		return false
	}
	for _, leg := range legs {
		if leg.From.T > w.tmax || !w.put(leg.To.T, leg.To.X) {
			return false
		}
	}
	return true
}

// tail walks the robot's tail. Segment k of a zig-zag runs from turn k
// to turn k+1 (turn 0 is the anchor) and is listed while turn k lies
// within the horizon, for at most trajectory.MaxTailSegments segments;
// its turns come from the power table while the robot has them, then
// from ZigZag.TurningPoint, which also splits kappa^k where it
// overflows. A ray or a halt is one segment up to the horizon, listed
// when its anchor lies before it; any other tail lists its own
// segments.
func (w *walk) tail(ct *robot, tail trajectory.Tail) {
	switch t := tail.(type) {
	case nil:
	case *trajectory.Halt:
		if a := t.Anchor(); w.tmax > a.T {
			w.put(w.tmax, a.X)
		}
	case *trajectory.ZigZag:
		for k, from := 1, t.Anchor().T; k <= trajectory.MaxTailSegments && from <= w.tmax; k++ {
			var x, tk float64
			if k <= ct.turns {
				x, tk = ct.turnAt(k)
			} else {
				p := t.TurningPoint(k)
				x, tk = p.X, p.T
			}
			if !w.put(tk, x) {
				return
			}
			from = tk
		}
	case *trajectory.Ray:
		if w.tmax > t.Anchor().T {
			x, _ := t.PositionAt(w.tmax)
			w.put(w.tmax, x)
		}
	default:
		for _, s := range t.SegmentsUntil(w.tmax) {
			if !w.put(s.To.T, s.To.X) {
				return
			}
		}
	}
}
