package compiled

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"linesearch/internal/geom"
	"linesearch/internal/numeric"
	"linesearch/internal/trajectory"
)

// Expected detection time under probabilistic detection.
//
// When every robot misses each visit of the target independently —
// the p-faulty regime of arXiv:2002.07797 — the expected detection
// time has an exact series form that needs no sampling. Order every
// "confirmation opportunity" of the target ascending in time: a
// reliable robot contributes its first visit with success probability
// 1, a p-faulty robot every visit with probability 1-p each, and a
// crashed robot nothing. Detection happens at the first successful
// opportunity, so
//
//	E[T] = sum_k t_k s_k prod_{j<k} (1 - s_j),
//
// the expectation of the first success over the merged stream. The
// series is summed until the tail proxy survival * t_k falls below
// expectedTol; geometric trajectories make t_k grow geometrically
// while survival shrinks geometrically, so the truncation error is
// bounded by the last survival times the local time scale. When
// survival * t_k is not shrinking the series diverges (the P^2*gamma
// >= 1 regime) and the sum reports +Inf rather than a truncated lie.

const (
	// expectedTol bounds the truncation: summation stops once the tail
	// proxy survival * t falls below expectedTol * max(1, partial sum).
	expectedTol = 1e-12
	// expectedMaxTerms caps the merged opportunities consumed; hitting
	// it with survival above expectedTol reports +Inf.
	expectedMaxTerms = 1 << 20
	// visitDedupeTol collapses the twin visit times a turning point at
	// the target produces (segment end and next segment start are the
	// same physical contact). Matches trajectory's contiguity tolerance.
	visitDedupeTol = 1e-9
	// visitHorizonMax bounds the base-time horizon scanned for further
	// visits; past it a robot is treated as never visiting again.
	visitHorizonMax = 1e15
)

// robotSpec is one robot that can confirm the target: its unit-speed
// start-up legs and tail as Plan.source returns them, its unit-speed
// first visit of the target (+Inf for none, as FirstVisits lists it),
// the speed it runs them at (all times divided by speed), and its
// per-visit miss probability in [0, 1). miss 0 is a reliable robot,
// which confirms at its first visit. Crashed robots have no spec.
type robotSpec struct {
	legs  []geom.Segment
	tail  trajectory.Tail
	first float64
	speed float64
	miss  float64
	// buf holds the legs of a robot of a schedule.
	buf [2]geom.Segment
}

// ExpectedSearchTime is the expected time to find a target at x when
// every robot misses each visit of x independently with probability
// miss (0 makes detection certain), after the adversary has crashed
// outright the f robots that arrive at x first (Arrivals). speeds
// follows the public API: nil means unit speeds, a single entry
// broadcasts to the whole fleet, otherwise there is one entry per
// robot. The crash set is chosen at those speeds, so a slow early
// visitor can escape it. The result is exact; +Inf means the
// expectation diverges or detection is not almost sure.
func (p *Plan) ExpectedSearchTime(x, miss float64, speeds []float64) (float64, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, fmt.Errorf("compiled: target %g must be finite", x)
	}
	if !(miss >= 0 && miss < 1) {
		return 0, fmt.Errorf("compiled: miss probability %v outside [0, 1)", miss)
	}
	n := p.N()
	switch len(speeds) {
	case 0:
		speeds = nil
	case 1:
		one := speeds[0]
		speeds = make([]float64, n)
		for i := range speeds {
			speeds[i] = one
		}
	case n:
	default:
		return 0, fmt.Errorf("compiled: speed vector has %d entries for %d robots", len(speeds), n)
	}
	for i, s := range speeds {
		if math.IsNaN(s) || math.IsInf(s, 0) || s <= 0 {
			return 0, fmt.Errorf("compiled: robot %d speed %g must be positive and finite", i, s)
		}
	}
	first := p.FirstVisits(x, nil)
	crashed := make([]bool, n)
	arrived := arrivals(first, speeds)
	for _, v := range arrived[:min(p.model.F, len(arrived))] {
		crashed[v.Robot] = true
	}
	specs := make([]robotSpec, 0, n)
	for i := range n {
		if crashed[i] {
			continue
		}
		specs = append(specs, robotSpec{first: first[i], speed: 1, miss: miss})
		s := &specs[len(specs)-1]
		s.legs, s.tail = p.source(i, &s.buf)
		if speeds != nil {
			s.speed = speeds[i]
		}
	}
	return expectedDetectionTime(specs, x), nil
}

// Visit records one robot's first arrival at a queried position.
type Visit struct {
	Robot int
	T     float64
}

// Arrivals returns the robots that visit x, each with its first-visit
// time at speeds, sorted by that time, ties broken by robot index. A
// robot whose unit-speed first visit lies past float64's range visits
// x no more than one that never reaches it (FirstVisits lists both as
// +Inf). speeds is nil for unit speeds or holds one entry per robot, by
// which its robot's time is divided; at a uniform speed scaling cannot
// reorder arrivals, so they keep the unit-speed order. The f earliest
// arrivals are the robots the worst-case adversary corrupts.
func (p *Plan) Arrivals(x float64, speeds []float64) []Visit {
	return arrivals(p.FirstVisits(x, nil), speeds)
}

// arrivals is Arrivals over the unit-speed first visits ts.
func arrivals(ts, speeds []float64) []Visit {
	visits := make([]Visit, 0, len(ts))
	for i, t := range ts {
		if !math.IsInf(t, 1) {
			visits = append(visits, Visit{Robot: i, T: t})
		}
	}
	// The visits are in robot order, so a stable sort by time breaks
	// ties by index. A uniform speed sorts the unit-speed times, so the
	// ties its rounding may make keep their order.
	byTime := func(a, b Visit) int { return cmp.Compare(a.T, b.T) }
	uniform := !slices.ContainsFunc(speeds, func(s float64) bool { return s != speeds[0] })
	if uniform {
		slices.SortStableFunc(visits, byTime)
	}
	for i := 0; speeds != nil && i < len(visits); i++ {
		visits[i].T /= speeds[visits[i].Robot]
	}
	if !uniform {
		slices.SortStableFunc(visits, byTime)
	}
	return visits
}

// oppCursor walks one robot's confirmation opportunities in time order.
type oppCursor struct {
	spec *robotSpec
	// next opportunity (wall time) and its success probability; valid
	// when ok.
	t    float64
	prob float64
	ok   bool
	// visit stream state
	visits    []float64
	vi        int
	horizon   float64
	lastVisit float64
	x         float64
}

// advance loads the cursor's next opportunity.
func (c *oppCursor) advance() {
	c.ok = false
	if c.spec.miss == 0 {
		if c.vi > 0 {
			return // single opportunity, already consumed
		}
		c.vi = 1
		if math.IsInf(c.spec.first, 1) {
			return
		}
		c.t = c.spec.first / c.spec.speed
		c.prob = 1
		c.ok = true
		return
	}
	for {
		if c.vi < len(c.visits) {
			base := c.visits[c.vi]
			c.vi++
			if base-c.lastVisit <= visitDedupeTol {
				continue // twin contact at a turning point
			}
			c.lastVisit = base
			c.t = base / c.spec.speed
			c.prob = 1 - c.spec.miss
			c.ok = true
			return
		}
		if !c.extend() {
			return
		}
	}
}

// extend fetches more of the visit stream; false when exhausted.
func (c *oppCursor) extend() bool {
	if c.horizon >= visitHorizonMax {
		return false
	}
	if c.spec.tail == nil {
		c.horizon = visitHorizonMax
		c.visits = trajectory.VisitsUntil(c.spec.legs, nil, c.x, math.Inf(1))
		return c.vi < len(c.visits)
	}
	for c.horizon < visitHorizonMax {
		if c.horizon == 0 {
			if math.IsInf(c.spec.first, 1) {
				c.horizon = visitHorizonMax
				return false
			}
			c.horizon = math.Max(c.spec.first*2, 16)
		} else {
			c.horizon *= 2
		}
		if c.horizon > visitHorizonMax {
			c.horizon = visitHorizonMax
		}
		all := trajectory.VisitsUntil(c.spec.legs, c.spec.tail, c.x, c.horizon)
		if len(all) > len(c.visits) {
			c.visits = all
			if c.vi < len(c.visits) {
				return true
			}
		}
	}
	return false
}

// expectedDetectionTime sums the series over the merged opportunity
// stream of robots (ties broken by robot order for determinism). It
// returns +Inf when detection is not almost sure or the expectation
// diverges.
func expectedDetectionTime(robots []robotSpec, x float64) float64 {
	cursors := make([]*oppCursor, 0, len(robots))
	for i := range robots {
		c := &oppCursor{spec: &robots[i], x: x, lastVisit: math.Inf(-1)}
		c.advance()
		if c.ok {
			cursors = append(cursors, c)
		}
	}
	if len(cursors) == 0 {
		return math.Inf(1)
	}

	var sum numeric.KahanSum
	survival := 1.0
	lastT := 0.0
	// Divergence tracking: survival*t is (up to constants) a lower
	// bound on the tail's remaining contribution. In a convergent
	// series its running minimum keeps falling (it oscillates within an
	// excursion — the return crossing is cheap, the next outbound one
	// multiplies t by gamma — but shrinks by P^2*gamma per excursion);
	// when the floor goes stale for a sustained window the series is
	// not converging and the expectation is infinite.
	tailFloor := math.Inf(1)
	stale := 0
	for terms := 0; terms < expectedMaxTerms; terms++ {
		best := -1
		for i, c := range cursors {
			if c.ok && (best < 0 || c.t < cursors[best].t) {
				best = i
			}
		}
		if best < 0 {
			// Opportunities exhausted with probability mass left. Mass
			// that never gets an opportunity (starved targets) means
			// detection is not almost sure: +Inf. Mass that merely
			// outlived the visit horizon is judged by its tail proxy —
			// against sqrt(expectedTol) rather than expectedTol,
			// because close to the divergence boundary the horizon
			// needed to drive the tail below full precision outgrows
			// float64 while the remaining contribution is already far
			// below any usable precision.
			if survival*math.Max(1, lastT) > math.Sqrt(expectedTol)*math.Max(1, sum.Value()) {
				return math.Inf(1)
			}
			return sum.Value()
		}
		c := cursors[best]
		sum.Add(survival * c.prob * c.t)
		survival *= 1 - c.prob
		lastT = c.t
		tail := survival * c.t
		if tail <= expectedTol*math.Max(1, sum.Value()) {
			return sum.Value()
		}
		if tail < tailFloor {
			tailFloor = tail
			stale = 0
		} else if stale++; stale >= 32 {
			return math.Inf(1)
		}
		c.advance()
	}
	return math.Inf(1)
}
