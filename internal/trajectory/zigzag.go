package trajectory

import (
	"fmt"
	"math"

	"linesearch/internal/geom"
)

// ZigZag is the infinite cone-bounded search tail of Definition 1: a
// robot anchored at a boundary point of C_beta crosses the cone at unit
// speed, reversing direction on each wall. By Lemma 1 its turning points
// are x_k = x0 * (-kappa)^k with kappa = (beta+1)/(beta-1).
type ZigZag struct {
	cone   geom.Cone
	anchor geom.Point
}

var _ Tail = (*ZigZag)(nil)

// NewZigZag returns a zig-zag tail in cone anchored at the given
// boundary point. The anchor must lie on the cone boundary (within
// rounding) at a nonzero position: the apex is a fixed point of the
// turning map and admits no motion.
func NewZigZag(cone geom.Cone, anchor geom.Point) (*ZigZag, error) {
	z, err := MakeZigZag(cone, anchor)
	if err != nil {
		return nil, err
	}
	return &z, nil
}

// MakeZigZag is NewZigZag returning the tail by value, so a caller
// holding many tails can keep them in one slice.
func MakeZigZag(cone geom.Cone, anchor geom.Point) (ZigZag, error) {
	if anchor.X == 0 {
		return ZigZag{}, fmt.Errorf("trajectory: zig-zag cannot anchor at the cone apex %v", anchor)
	}
	if !cone.OnBoundary(anchor, 1e-9) {
		return ZigZag{}, fmt.Errorf("trajectory: zig-zag anchor %v not on boundary of C_%g", anchor, cone.Beta())
	}
	// Snap the anchor time exactly onto the boundary so downstream
	// closed forms see a consistent state.
	anchor.T = cone.BoundaryTime(anchor.X)
	return ZigZag{cone: cone, anchor: anchor}, nil
}

// Anchor implements Tail.
func (z *ZigZag) Anchor() geom.Point { return z.anchor }

// Cone returns the cone the tail zig-zags in.
func (z *ZigZag) Cone() geom.Cone { return z.cone }

// Validate implements Tail.
func (z *ZigZag) Validate() error {
	if z.anchor.X == 0 || !z.cone.OnBoundary(z.anchor, 1e-9) {
		return fmt.Errorf("trajectory: invalid zig-zag anchor %v for C_%g", z.anchor, z.cone.Beta())
	}
	return nil
}

// TurningPoint returns the k-th turning point of the tail (k = 0 is the
// anchor itself). Negative k extends the zig-zag backward in time, which
// is how Definition 4 derives the start-up turning points tau'_i.
func (z *ZigZag) TurningPoint(k int) geom.Point {
	kappa := z.cone.ExpansionFactor()
	grow := math.Pow(kappa, float64(k))
	mag := math.Abs(z.anchor.X) * grow
	if math.IsInf(grow, 0) || grow == 0 {
		// kappa^k alone leaves the float64 range although the turning
		// point may not (a tiny or huge anchor): apply it in two halves.
		h := k / 2
		mag = math.Pow(kappa, float64(h)) * (math.Abs(z.anchor.X) * math.Pow(kappa, float64(k-h)))
	}
	x := mag
	// Sign alternates each turn; even k keeps the anchor's side.
	if k%2 != 0 {
		x = -mag
	}
	if z.anchor.X < 0 {
		x = -x
	}
	return geom.Point{X: x, T: z.cone.BoundaryTime(x)}
}

// segment returns the k-th motion segment, from TurningPoint(k) to
// TurningPoint(k+1).
func (z *ZigZag) segment(k int) geom.Segment {
	return geom.Segment{From: z.TurningPoint(k), To: z.TurningPoint(k + 1)}
}

// PositionAt implements Tail.
func (z *ZigZag) PositionAt(t float64) (float64, error) {
	if t < z.anchor.T {
		return 0, fmt.Errorf("trajectory: time %g precedes zig-zag anchor %g", t, z.anchor.T)
	}
	k, err := z.segmentIndexAt(t)
	if err != nil {
		return 0, err
	}
	return z.segment(k).PositionAt(t)
}

// segmentIndexAt finds the segment whose time span contains t >= anchor
// time. Turning times grow geometrically (t_k = kappa^k * t_0), so a
// logarithm gives a near-exact starting guess; a short walk absorbs
// rounding at the edges. Segments are contiguous in time, so the first k
// with t <= segment(k).To.T is the answer.
func (z *ZigZag) segmentIndexAt(t float64) (int, error) {
	t0 := z.anchor.T
	kappa := z.cone.ExpansionFactor()
	k := 0
	if t > t0 && t0 > 0 {
		ratio := math.Log(t / t0)
		if math.IsInf(ratio, 1) {
			ratio = math.Log(t) - math.Log(t0) // t/t0 overflows: int(+Inf) would not
		}
		k = int(ratio/math.Log(kappa)) - 1
		if k < 0 {
			k = 0
		}
	}
	for k > 0 && z.segment(k).From.T > t {
		k--
	}
	for i := 0; i < MaxTailSegments; i++ {
		if t <= z.segment(k).To.T {
			return k, nil
		}
		k++
	}
	return 0, fmt.Errorf("trajectory: zig-zag segment not found for t=%g", t)
}

// FirstVisit implements Tail: a segment-by-segment walk started next
// to the answer. Segment k sweeps through the apex from TurningPoint(k)
// to TurningPoint(k+1), so x is first reached on the segment arriving
// at the first turning point j on x's side with |x_j| >= |x|, and
// Lemma 1's |x_j| = |x_0|*kappa^j names j from a logarithm. Once x_{j-2}
// is checked to fall short of x, no segment before j-3 ends within
// rounding of x or beyond float64, so the walk from there answers as
// the walk from k = 0 would, in a few segments.
func (z *ZigZag) FirstVisit(x float64) (float64, bool) {
	ax := math.Abs(x)
	// Turning points on x's side have j's parity; the apex counts as the
	// anchor's (even) side.
	p := 0
	if x != 0 && (x < 0) != (z.anchor.X < 0) {
		p = 1
	}
	// t_k = beta*|x_k| leaves float64 first, and such a turn reaches
	// every target.
	j, y := p, math.Min(ax, math.MaxFloat64/z.cone.Beta())
	if e := (math.Log(y) - math.Log(math.Abs(z.anchor.X))) / math.Log(z.cone.ExpansionFactor()); e > float64(p) {
		j += 2 * int(math.Ceil((math.Min(e, 1<<52)-float64(p))/2))
	}
	for ; j-2 >= p; j -= 2 {
		if q := z.TurningPoint(j - 2); math.Abs(q.X) < ax && !math.IsInf(q.T, 0) {
			break
		}
	}
	k0 := max(j-3, 0)
	from := z.TurningPoint(k0)
	for k := k0; k < k0+MaxTailSegments; k++ {
		s := geom.Segment{From: from, To: z.TurningPoint(k + 1)}
		if math.IsInf(s.To.X, 0) || math.IsInf(s.To.T, 0) {
			// The next turn lies beyond the float64 range: the robot
			// sweeps on from s.From at unit speed and never returns.
			dir := math.Copysign(1, s.To.X-s.From.X)
			if ahead := (x - s.From.X) * dir; ahead >= 0 {
				return s.From.T + ahead, true
			}
			return 0, false
		}
		if t, ok := s.FirstVisit(x); ok {
			return t, true
		}
		if math.Min(math.Abs(s.From.X), math.Abs(s.To.X)) > ax {
			// Both endpoints are already beyond |x| on both sides; every
			// later segment sweeps a superset interval, so if x were
			// coverable it would have been covered.
			return 0, false
		}
		from = s.To
	}
	return 0, false
}

// VisitsUntil implements Tail.
func (z *ZigZag) VisitsUntil(x, tmax float64) []float64 {
	var out []float64
	for k := 0; k < MaxTailSegments; k++ {
		s := z.segment(k)
		if s.From.T > tmax {
			break
		}
		if v, ok := s.FirstVisit(x); ok && v <= tmax {
			out = append(out, v)
		}
	}
	return dedupeAscending(out)
}

// SegmentsUntil implements Tail.
func (z *ZigZag) SegmentsUntil(tmax float64) []geom.Segment {
	var out []geom.Segment
	for k := 0; k < MaxTailSegments; k++ {
		s := z.segment(k)
		if s.From.T > tmax {
			break
		}
		out = append(out, s)
	}
	return out
}
