// Package compiled is the hot-path evaluation kernel: it flattens a
// sim.Plan's trajectories into flat turning-time/position arrays once,
// then answers first-visit queries by binary search and k-th-distinct
// -visit queries with a zero-allocation introselect in a fixed buffer —
// no per-query []Visit slice, O(n) expected and O(n log n) worst case.
//
// The flattening exploits the structure Theorem 3 gives every schedule
// in this repository: turning points form a geometric sequence inside
// the cone C_beta, so a finite corner array covers an exponentially
// large target range. A plan's corners live in one arena of four flat
// arrays (times, positions and the running coverage envelope, i.e.
// cumulative min/max position), counted before the one allocation; each
// robot is a view into it plus its trajectory's tail. The envelope is
// monotone in the corner index, so "which segment first reaches x" is a
// binary search. Past the corners every robot answers through its
// tail's closed-form FirstVisit (none for a robot that halts), so
// compiled answers are defined for every input the simulator accepts.
//
// All crossing times are computed with the same arithmetic as
// internal/sim (identical segment endpoints, identical interpolation),
// so compiled results agree with the reference engine bit-for-bit on
// covered targets; the differential test in this package enforces
// agreement to 1e-9 across randomized plans.
//
// Proportional and cone plans (and the Byzantine rule over them) are
// self-similar: scaling space and time by sigma = kappa^(2/n) maps
// robot i onto robot i+1, so the k-th visitor of x is named by x's
// phase within one period of ln|x|. Compile detects that structure
// without allocating; each (plan, rank) then lazily builds a phase
// table (phase.go) that names the certainly-earlier robots and the few
// candidates of each phase region. A query evaluates only the
// candidates, with the scan's own arithmetic, so it returns the scan's
// answer bit for bit in O(1) instead of O(n). Plans without the
// structure, small fleets, targets outside the table's range and every
// query before the table exists scan all robots.
package compiled

import (
	"fmt"
	"math"
	"sync/atomic"

	"linesearch/internal/geom"
	"linesearch/internal/sim"
	"linesearch/internal/trajectory"
)

// Compilation bounds: a zig-zag's turning points are materialised until
// its envelope covers |x| <= coverageFactor*|anchor| on both sides, far
// beyond the service's query horizon, or it has maxCorners corners (a
// guard for cones whose expansion factor is barely above 1). Targets
// beyond a robot's envelope, capped or not, are answered by its tail.
const (
	coverageFactor = 1e8
	maxCorners     = 4096
)

// robot is one robot's view of its plan's corner arena plus the tail
// that answers targets beyond the corners. Robots sharing a source
// trajectory (the doubling baseline) share one view.
type robot struct {
	// times and pos are the trajectory's corner points (finite legs
	// followed by materialised tail turning points); times never
	// decrease and motion between consecutive corners is uniform.
	times []float64
	pos   []float64
	// cumMin and cumMax are the running coverage envelope:
	// cumMin[i] = min(pos[0..i]), cumMax[i] = max(pos[0..i]). cumMin is
	// nonincreasing and cumMax nondecreasing, which makes "first corner
	// index whose envelope contains x" binary-searchable.
	cumMin []float64
	cumMax []float64
	// tail answers targets outside the envelope; nil when the robot
	// halts, so it never visits them.
	tail trajectory.Tail
}

// Plan is a compiled search plan: one robot view per robot plus the
// fault model's budget and detection rank. It is safe for concurrent
// use: the corners never change after Compile, the phase tables (see
// phase.go) are built once per rank and published atomically, and
// per-query scratch lives in Evaluators (see eval.go).
type Plan struct {
	robots []robot
	f      int
	// rank is the distinct-visitor rank at which the source plan's
	// detection rule fires: f+1 in the crash model, f+votes under the
	// Byzantine voting rule. The kernel's selection path is identical
	// either way — only k changes.
	rank  int
	src   *sim.Plan
	evals evaluatorPool
	// sym is the fleet's self-similarity, detected at compile time;
	// table is the phase table of rank, otherRanks (allocated on first
	// use) those of every other rank, indexed by rank.
	sym        symmetry
	table      rankTable
	otherRanks atomic.Pointer[[]rankTable]
}

// Compile flattens every trajectory of p into the binary-searchable
// corner representation.
func Compile(p *sim.Plan) (*Plan, error) {
	return compile(p, maxCorners)
}

// compile is Compile with the per-trajectory corner cap as a
// parameter, so tests can force targets past the corners. It counts
// every distinct trajectory's corners, allocates one arena for all of
// them and fills it robot by robot; sim.NewPlanModel has already
// validated every trajectory.
func compile(p *sim.Plan, cornerCap int) (*Plan, error) {
	if p == nil {
		return nil, fmt.Errorf("compiled: nil plan")
	}
	trajs := p.Trajectories()
	cp := &Plan{robots: make([]robot, len(trajs)), f: p.F(), rank: p.DetectionRank(), src: p}
	// A trajectory's finite part is counted exactly and a zig-zag's
	// turns are bounded by zigzagTurns, both as arena.compile keeps them.
	size, kappa, turns := 0, 0.0, 0
	for i, tr := range trajs {
		if i > 0 && tr == trajs[i-1] {
			continue
		}
		var c cursor
		prefix(tr, func(p geom.Point) { c.keep(p) })
		if z, ok := tr.TailOf().(*trajectory.ZigZag); ok {
			if k := z.Cone().ExpansionFactor(); k != kappa {
				kappa, turns = k, zigzagTurns(k, cornerCap)
			}
			c.n = min(c.n+turns, max(cornerCap, c.n))
		}
		size += c.n
	}
	buf := make([]float64, 4*size)
	a := arena{
		times:  buf[:0:size],
		pos:    buf[size : size : 2*size],
		cumMin: buf[2*size : 2*size : 3*size],
		cumMax: buf[3*size : 3*size : 4*size],
	}
	for i, tr := range trajs {
		if i > 0 && tr == trajs[i-1] {
			cp.robots[i] = cp.robots[i-1]
			continue
		}
		cp.robots[i] = a.compile(tr, cornerCap)
	}
	cp.evals.plan = cp
	cp.sym = detectSymmetry(cp.robots)
	return cp, nil
}

// prefix calls add with each corner of tr's finite part: the first
// leg's start, every leg's end and the tail's anchor.
func prefix(tr *trajectory.Trajectory, add func(geom.Point)) {
	if tr.NumLegs() > 0 {
		add(tr.Leg(0).From)
		for i := range tr.NumLegs() {
			add(tr.Leg(i).To)
		}
	}
	if tail := tr.TailOf(); tail != nil {
		add(tail.Anchor())
	}
}

// cursor tracks the corners kept of one trajectory and their running
// envelope. A corner's time is clamped to the previous corner's (a tail
// anchor may precede the final leg's end by up to the trajectory
// contiguity tolerance), and a corner repeating the previous one
// exactly (the leg junction a tail anchor repeats) is dropped.
type cursor struct {
	n      int
	last   geom.Point
	lo, hi float64
}

// keep returns p as clamped and reports whether it is a new corner.
func (c *cursor) keep(p geom.Point) (geom.Point, bool) {
	if c.n == 0 {
		c.lo, c.hi = p.X, p.X
	} else {
		if p.T < c.last.T {
			p.T = c.last.T
		}
		if p == c.last {
			return p, false
		}
		if p.X < c.lo {
			c.lo = p.X
		}
		if p.X > c.hi {
			c.hi = p.X
		}
	}
	c.n++
	c.last = p
	return p, true
}

// zigzagTurns bounds the turning points past the anchor arena.compile
// materialises for a zig-zag of expansion factor kappa. Turn k lies at
// |x_0|*kappa^k, computed with the same math.Pow, and a product with
// |x_0| never reverses a comparison with coverageFactor*|x_0|: the
// first k with kappa^k >= coverageFactor covers one side and k+1 the
// other. Past cornerCap the cap binds instead.
func zigzagTurns(kappa float64, cornerCap int) int {
	k := max(int(math.Log(coverageFactor)/math.Log(kappa))-1, 1)
	for k < cornerCap && math.Pow(kappa, float64(k)) < coverageFactor {
		k++
	}
	return k + 1
}

// arena is a plan's four corner arrays, sized before the first corner
// is written; each robot's view is the run of corners arena.compile
// appended for it.
type arena struct {
	times, pos, cumMin, cumMax []float64
}

// compile appends tr's corners to the arena and returns its view:
// the finite part, then for a zig-zag tail its turning points until
// the envelope covers coverageFactor times the anchor's distance on
// both sides, stopping at cornerCap corners or where a turning point
// leaves the float64 range.
func (a *arena) compile(tr *trajectory.Trajectory, cornerCap int) robot {
	start := len(a.times)
	var c cursor
	add := func(p geom.Point) {
		if p, ok := c.keep(p); ok {
			a.times = append(a.times, p.T)
			a.pos = append(a.pos, p.X)
			a.cumMin = append(a.cumMin, c.lo)
			a.cumMax = append(a.cumMax, c.hi)
		}
	}
	prefix(tr, add)

	tail := tr.TailOf()
	switch t := tail.(type) {
	case *trajectory.Halt:
		// A halting robot never extends coverage beyond its anchor,
		// which is already its last corner.
		tail = nil
	case *trajectory.ZigZag:
		cover := coverageFactor * math.Abs(t.Anchor().X)
		for k := 1; c.n < cornerCap && (c.hi < cover || c.lo > -cover); k++ {
			p := t.TurningPoint(k)
			if math.IsInf(p.X, 0) || math.IsInf(p.T, 0) {
				break // beyond float64: the tail's closed form answers
			}
			add(p)
		}
	}
	return robot{
		times:  a.times[start:],
		pos:    a.pos[start:],
		cumMin: a.cumMin[start:],
		cumMax: a.cumMax[start:],
		tail:   tail,
	}
}

// covered reports whether the envelope at corner index i contains x.
func (ct *robot) covered(i int, x float64) bool {
	return ct.cumMin[i] <= x && x <= ct.cumMax[i]
}

// firstVisit returns the robot's earliest time standing on x. hint is
// the covering corner index returned by a previous query (or a negative
// value for none); for sorted or nearby targets it narrows the binary
// search to a few corners. The returned index is the new hint; ok
// reports whether the robot ever visits x.
func (ct *robot) firstVisit(x float64, hint int) (t float64, idx int, ok bool) {
	last := len(ct.times) - 1
	if !ct.covered(last, x) {
		if ct.tail == nil {
			return 0, hint, false
		}
		t, ok := ct.tail.FirstVisit(x)
		return t, hint, ok
	}

	// Find the minimal corner index whose envelope contains x. The
	// predicate covered(i, x) is monotone in i, so the previous query's
	// index splits the search: a still-covering hint bounds from above,
	// a stale one from below.
	lo, hi := 0, last
	if hint >= 0 && hint <= last {
		if ct.covered(hint, x) {
			hi = hint
		} else {
			lo = hint + 1
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ct.covered(mid, x) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}

	if lo == 0 {
		// x is the start position itself.
		return ct.times[0], 0, true
	}
	// x entered the envelope on the segment lo-1 -> lo, which therefore
	// crosses it exactly once; interpolate with the same arithmetic as
	// geom.Segment.FirstVisit. The displacement cannot be zero: a
	// stationary segment never extends the envelope.
	x0, x1 := ct.pos[lo-1], ct.pos[lo]
	frac := (x - x0) / (x1 - x0)
	return ct.times[lo-1] + frac*(ct.times[lo]-ct.times[lo-1]), lo, true
}
