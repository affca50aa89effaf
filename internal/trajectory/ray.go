package trajectory

import (
	"fmt"
	"math"

	"linesearch/internal/geom"
)

// Direction is the sense of a one-way sweep along the line.
type Direction int

// Sweep directions. The zero value is invalid so that a forgotten
// direction fails validation instead of silently sweeping right.
const (
	Right Direction = 1
	Left  Direction = -1
)

// String returns "right" or "left".
func (d Direction) String() string {
	switch d {
	case Right:
		return "right"
	case Left:
		return "left"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Ray is an infinite one-way unit-speed sweep: the tail used by the
// trivial optimal algorithm for n >= 2f+2 robots, which sends f+1 robots
// left and f+1 right from the origin.
type Ray struct {
	anchor geom.Point
	dir    Direction
}

var _ Tail = (*Ray)(nil)

// NewRay returns a ray tail departing anchor in direction dir.
func NewRay(anchor geom.Point, dir Direction) (*Ray, error) {
	if dir != Right && dir != Left {
		return nil, fmt.Errorf("trajectory: invalid ray direction %d", int(dir))
	}
	if anchor.T < 0 || math.IsNaN(anchor.T) || math.IsNaN(anchor.X) {
		return nil, fmt.Errorf("trajectory: invalid ray anchor %v", anchor)
	}
	return &Ray{anchor: anchor, dir: dir}, nil
}

// MustRay is NewRay for statically known inputs; panics on error.
func MustRay(anchor geom.Point, dir Direction) *Ray {
	r, err := NewRay(anchor, dir)
	if err != nil {
		panic(err)
	}
	return r
}

// Anchor implements Tail.
func (r *Ray) Anchor() geom.Point { return r.anchor }

// Validate implements Tail.
func (r *Ray) Validate() error {
	if r.dir != Right && r.dir != Left {
		return fmt.Errorf("trajectory: invalid ray direction %d", int(r.dir))
	}
	return nil
}

// PositionAt implements Tail.
func (r *Ray) PositionAt(t float64) (float64, error) {
	if t < r.anchor.T {
		return 0, fmt.Errorf("trajectory: time %g precedes ray anchor %g", t, r.anchor.T)
	}
	return r.anchor.X + float64(r.dir)*(t-r.anchor.T), nil
}

// FirstVisit implements Tail. A ray visits x exactly once, if x lies
// ahead of the anchor in the sweep direction.
func (r *Ray) FirstVisit(x float64) (float64, bool) {
	ahead := (x - r.anchor.X) * float64(r.dir)
	if ahead < 0 {
		return 0, false
	}
	return r.anchor.T + ahead, true
}

// VisitsUntil implements Tail.
func (r *Ray) VisitsUntil(x, tmax float64) []float64 {
	if t, ok := r.FirstVisit(x); ok && t <= tmax {
		return []float64{t}
	}
	return nil
}

// SegmentsUntil implements Tail. The infinite ray is truncated at tmax
// (or at the anchor for tmax before it) so callers can plot it.
func (r *Ray) SegmentsUntil(tmax float64) []geom.Segment {
	if tmax <= r.anchor.T {
		return nil
	}
	end, _ := r.PositionAt(tmax)
	return []geom.Segment{{From: r.anchor, To: geom.Point{X: end, T: tmax}}}
}

// Halt is a tail that stands still forever: the terminal state of a
// finite custom strategy. It lets callers express "search this far, then
// stop" plans in the same framework.
type Halt struct {
	anchor geom.Point
}

var _ Tail = (*Halt)(nil)

// NewHalt returns a halting tail at anchor.
func NewHalt(anchor geom.Point) (*Halt, error) {
	if anchor.T < 0 || math.IsNaN(anchor.T) || math.IsNaN(anchor.X) {
		return nil, fmt.Errorf("trajectory: invalid halt anchor %v", anchor)
	}
	return &Halt{anchor: anchor}, nil
}

// Anchor implements Tail.
func (h *Halt) Anchor() geom.Point { return h.anchor }

// Validate implements Tail.
func (h *Halt) Validate() error { return nil }

// PositionAt implements Tail.
func (h *Halt) PositionAt(t float64) (float64, error) {
	if t < h.anchor.T {
		return 0, fmt.Errorf("trajectory: time %g precedes halt anchor %g", t, h.anchor.T)
	}
	return h.anchor.X, nil
}

// FirstVisit implements Tail.
func (h *Halt) FirstVisit(x float64) (float64, bool) {
	if x == h.anchor.X {
		return h.anchor.T, true
	}
	return 0, false
}

// VisitsUntil implements Tail.
func (h *Halt) VisitsUntil(x, tmax float64) []float64 {
	if x == h.anchor.X && h.anchor.T <= tmax {
		return []float64{h.anchor.T}
	}
	return nil
}

// SegmentsUntil implements Tail.
func (h *Halt) SegmentsUntil(tmax float64) []geom.Segment {
	if tmax <= h.anchor.T {
		return nil
	}
	return []geom.Segment{{From: h.anchor, To: geom.Point{X: h.anchor.X, T: tmax}}}
}
