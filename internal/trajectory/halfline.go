package trajectory

import (
	"fmt"
	"math"

	"linesearch/internal/geom"
)

// HalfZigZag is the one-sided geometric search tail of the half-line
// model (arXiv:2002.07797): anchored at a base position, the robot
// sweeps out to geometrically growing turning points and returns fully
// to the base after each excursion. Excursion k (k = 0, 1, ...) reaches
// base + first*gamma^k, so every point of the half line beyond the base
// is re-crossed twice per cycle forever — the property a probabilistic
// detector needs, since any single crossing may fail.
//
// Unlike ZigZag, which alternates sides of the cone apex, HalfZigZag
// never leaves the closed half line on the sign(first) side of the base.
type HalfZigZag struct {
	anchor geom.Point
	first  float64 // signed first excursion length (nonzero)
	gamma  float64 // excursion growth factor, > 1
}

var _ Tail = (*HalfZigZag)(nil)

// NewHalfZigZag returns a one-sided zig-zag tail anchored at anchor (the
// base the robot returns to), with first excursion displacement first
// (positive sweeps right, negative left) and per-cycle growth gamma > 1.
func NewHalfZigZag(anchor geom.Point, first, gamma float64) (*HalfZigZag, error) {
	if math.IsNaN(anchor.X) || math.IsNaN(anchor.T) || anchor.T < 0 {
		return nil, fmt.Errorf("trajectory: invalid half-zigzag anchor %v", anchor)
	}
	if math.IsNaN(first) || math.IsInf(first, 0) || first == 0 {
		return nil, fmt.Errorf("trajectory: half-zigzag first excursion must be finite and nonzero, got %g", first)
	}
	if math.IsNaN(gamma) || math.IsInf(gamma, 0) || !(gamma > 1) {
		return nil, fmt.Errorf("trajectory: half-zigzag growth factor must be finite and exceed 1, got %g", gamma)
	}
	return &HalfZigZag{anchor: anchor, first: first, gamma: gamma}, nil
}

// MustHalfZigZag is NewHalfZigZag for statically known inputs; panics on
// error.
func MustHalfZigZag(anchor geom.Point, first, gamma float64) *HalfZigZag {
	h, err := NewHalfZigZag(anchor, first, gamma)
	if err != nil {
		panic(err)
	}
	return h
}

// Anchor implements Tail.
func (h *HalfZigZag) Anchor() geom.Point { return h.anchor }

// Gamma returns the excursion growth factor.
func (h *HalfZigZag) Gamma() float64 { return h.gamma }

// Validate implements Tail.
func (h *HalfZigZag) Validate() error {
	_, err := NewHalfZigZag(h.anchor, h.first, h.gamma)
	return err
}

// excursion returns the length of the k-th excursion, |first|*gamma^k.
func (h *HalfZigZag) excursion(k int) float64 {
	return math.Abs(h.first) * math.Pow(h.gamma, float64(k))
}

// departTime returns the time the robot leaves the base for excursion k:
// anchor.T + 2*|first|*(gamma^k - 1)/(gamma - 1), the cumulative cost of
// the k completed round trips before it.
func (h *HalfZigZag) departTime(k int) float64 {
	if k == 0 {
		return h.anchor.T // the sum below is 0, but NaN once 2*|first| overflows
	}
	return h.anchor.T + 2*math.Abs(h.first)*(math.Pow(h.gamma, float64(k))-1)/(h.gamma-1)
}

// segment returns the i-th motion segment: even i = 2k is the outbound
// leg of excursion k, odd i = 2k+1 the return leg.
func (h *HalfZigZag) segment(i int) geom.Segment {
	k := i / 2
	d := h.excursion(k)
	depart := h.departTime(k)
	sign := 1.0
	if h.first < 0 {
		sign = -1
	}
	tip := geom.Point{X: h.anchor.X + sign*d, T: depart + d}
	if i%2 == 0 {
		return geom.Segment{From: geom.Point{X: h.anchor.X, T: depart}, To: tip}
	}
	return geom.Segment{From: tip, To: geom.Point{X: h.anchor.X, T: depart + 2*d}}
}

// offset returns the distance of x from the base along the sweep
// direction; negative means x lies behind the base and is never visited
// (except the base itself at offset 0).
func (h *HalfZigZag) offset(x float64) float64 {
	if h.first < 0 {
		return h.anchor.X - x
	}
	return x - h.anchor.X
}

// firstReaching returns the smallest excursion index whose tip reaches
// offset d >= 0. Excursion lengths grow geometrically, so the logarithm
// gives the answer directly; a short walk absorbs rounding.
func (h *HalfZigZag) firstReaching(d float64) int {
	if d <= math.Abs(h.first) {
		return 0
	}
	k := int(math.Log(d/math.Abs(h.first)) / math.Log(h.gamma))
	for k > 0 && h.excursion(k-1) >= d {
		k--
	}
	for i := 0; i < MaxTailSegments; i++ {
		if h.excursion(k) >= d {
			return k
		}
		k++
	}
	return k
}

// PositionAt implements Tail.
func (h *HalfZigZag) PositionAt(t float64) (float64, error) {
	if t < h.anchor.T {
		return 0, fmt.Errorf("trajectory: time %g precedes half-zigzag anchor %g", t, h.anchor.T)
	}
	// Locate the excursion whose time window [departTime(k),
	// departTime(k+1)] contains t, then the leg within it.
	elapsed := t - h.anchor.T
	base := math.Abs(h.first)
	k := 0
	if elapsed > 2*base {
		// departTime(k) - anchor.T = 2*base*(gamma^k-1)/(gamma-1); invert.
		g := elapsed*(h.gamma-1)/(2*base) + 1
		k = int(math.Log(g) / math.Log(h.gamma))
		for k > 0 && h.departTime(k) > t {
			k--
		}
	}
	for i := 0; i < MaxTailSegments; i++ {
		if t <= h.departTime(k+1) {
			out := h.segment(2 * k)
			if t <= out.To.T {
				return out.PositionAt(t)
			}
			return h.segment(2*k + 1).PositionAt(t)
		}
		k++
	}
	return 0, fmt.Errorf("trajectory: half-zigzag segment not found for t=%g", t)
}

// FirstVisit implements Tail.
func (h *HalfZigZag) FirstVisit(x float64) (float64, bool) {
	d := h.offset(x)
	if d < 0 {
		return 0, false
	}
	if d == 0 {
		return h.anchor.T, true
	}
	k := h.firstReaching(d)
	return h.departTime(k) + d, true
}

// VisitsUntil implements Tail. Each covering excursion k contributes the
// outbound crossing departTime(k)+d and the return crossing
// departTime(k) + 2*excursion(k) - d (one visit when they coincide at
// the tip).
func (h *HalfZigZag) VisitsUntil(x, tmax float64) []float64 {
	d := h.offset(x)
	if d < 0 {
		return nil
	}
	if d == 0 {
		// The robot stands on the base at the start of every excursion.
		var out []float64
		for k := 0; ; k++ {
			t := h.departTime(k)
			if t > tmax || k >= MaxTailSegments {
				break
			}
			out = append(out, t)
		}
		return out
	}
	var out []float64
	for k := h.firstReaching(d); k < MaxTailSegments; k++ {
		depart := h.departTime(k)
		up := depart + d
		if up > tmax {
			break
		}
		out = append(out, up)
		if down := depart + 2*h.excursion(k) - d; down <= tmax && down > up {
			out = append(out, down)
		}
	}
	return out
}

// SegmentsUntil implements Tail.
func (h *HalfZigZag) SegmentsUntil(tmax float64) []geom.Segment {
	var out []geom.Segment
	for i := 0; i < 2*MaxTailSegments; i++ {
		s := h.segment(i)
		if s.From.T > tmax {
			break
		}
		out = append(out, s)
	}
	return out
}
