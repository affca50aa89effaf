package compiled_test

import (
	"math"
	"testing"

	"linesearch/internal/compiled"
	"linesearch/internal/geom"
	"linesearch/internal/trajectory"
)

// segmentWalk is the corner walk's oracle: the trajectory's motion
// segments up to tmax, listed as the first one's start and every end,
// or the start alone when no segment starts by tmax.
func segmentWalk(tr *trajectory.Trajectory, tmax float64) []geom.Point {
	segs := tr.SegmentsUntil(tmax)
	if len(segs) == 0 {
		return []geom.Point{start(tr)}
	}
	pts := make([]geom.Point, 0, len(segs)+1)
	pts = append(pts, segs[0].From)
	for _, s := range segs {
		pts = append(pts, s.To)
	}
	return pts
}

// cornerWalk collects robot i's corner walk.
func cornerWalk(p *compiled.Plan, i int, tmax float64, limit int) []geom.Point {
	var pts []geom.Point
	p.Walk(i, tmax, limit, func(t, x float64) bool {
		pts = append(pts, geom.Point{X: x, T: t})
		return true
	})
	return pts
}

// sameBits reports whether two point lists are identical bit for bit.
func sameBits(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) || math.Float64bits(a[i].T) != math.Float64bits(b[i].T) {
			return false
		}
	}
	return true
}

// start returns tr's first point: its first leg's start, or without
// legs its tail's anchor.
func start(tr *trajectory.Trajectory) geom.Point {
	if legs := tr.Legs(); len(legs) > 0 {
		return legs[0].From
	}
	return tr.TailOf().Anchor()
}

// walkHorizons returns horizons that probe robot tr's walk: 0, its
// start time, its start time scaled far up (where a cone whose
// expansion factor is near 1 reaches trajectory.MaxTailSegments), and
// 40 of the turning times among its first 2,000 corners, each with its
// ±1-ulp neighbours.
func walkHorizons(tr *trajectory.Trajectory) []float64 {
	t0 := start(tr).T
	far := 1e6 * (t0 + 1)
	pts := segmentWalk(tr, far)
	pts = pts[:min(len(pts), 2000)]
	hs := []float64{0, t0, far}
	step := max(len(pts)/40, 1)
	for i := 0; i < len(pts); i += step {
		t := pts[i].T
		hs = append(hs, t, math.Nextafter(t, math.Inf(-1)), math.Nextafter(t, math.Inf(1)))
	}
	return hs
}

// TestCornerWalkMatchesSegmentWalk runs every robot's corner walk
// against the segment walk over its trajectory, bit for bit, on every
// plan the derived-tail oracle draws from: every tail kind, cones whose
// corner cap binds, plans compiled with 8 corners so most turns come
// from the tails, the mixed-tail fleet and the fleet whose start-up legs
// end 9e-10 after their anchors (kept clamped by the arena). Each
// horizon runs without a limit and cut at 256 and 3 points.
func TestCornerWalkMatchesSegmentWalk(t *testing.T) {
	for _, c := range implicitPlans(t) {
		cp, err := compiled.CompileCapped(c.plan, c.cap)
		if err != nil {
			t.Fatal(err)
		}
		for r, tr := range c.plan.Trajectories() {
			for _, h := range walkHorizons(tr) {
				want := segmentWalk(tr, h)
				for _, limit := range []int{0, 256, 3} {
					w := want
					if limit > 0 && len(w) > limit {
						w = w[:limit]
					}
					if got := cornerWalk(cp, r, h, limit); !sameBits(got, w) {
						t.Fatalf("%s robot %d horizon %v limit %d:\n got %v\nwant %v", c.name, r, h, limit, got, w)
					}
				}
			}
		}
	}
}

// TestCornerWalkStopsWhenRefused checks that the walk emits nothing
// after emit refuses a point.
func TestCornerWalkStopsWhenRefused(t *testing.T) {
	for _, c := range implicitPlans(t) {
		cp, err := compiled.CompileCapped(c.plan, c.cap)
		if err != nil {
			t.Fatal(err)
		}
		for r := range c.plan.Trajectories() {
			calls := 0
			cp.Walk(r, math.MaxFloat64, 0, func(float64, float64) bool {
				calls++
				return calls < 2
			})
			if calls != 2 {
				t.Fatalf("%s robot %d: %d calls, want 2", c.name, r, calls)
			}
		}
	}
}
