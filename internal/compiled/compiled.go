// Package compiled is the hot-path evaluation kernel: it flattens a
// search plan into corner arrays once, then answers first-visit queries
// by binary search and k-th-distinct-visit queries with a
// zero-allocation introselect in a fixed buffer — no per-query []Visit
// slice, O(n) expected and O(n log n) worst case.
//
// A plan has one of two sources. Compile reads a sim.Plan's
// trajectories, whatever the strategy. CompileSchedule reads a zig-zag
// schedule (internal/schedule: the proportional, cone and uniform
// fleets, and the Byzantine rule over any of them) straight from its
// robots' closed forms, with no trajectory built: each robot's
// start-up legs and zig-zag tail come from schedule.Robot, whose
// arithmetic the trajectory builder shares. Both sources fill the arena
// through the same cursor, so the two kernels of one schedule are
// bit-identical. FromStrategy, the build every production caller uses,
// takes the schedule when the strategy has one and the sim.Plan
// otherwise.
//
// The flattening exploits the structure Theorem 3 gives every schedule
// in this repository: a zig-zag tail turns at |x_k| = |x_0|·kappa^k
// inside its cone C_beta (Lemma 1), so a few dozen turns cover an
// exponentially large target range, and every robot in one cone turns
// by the same powers. A plan's arena is one allocation, counted before
// it is made. It holds each robot's finite part (start-up legs and the
// tail's anchor) as corners with their running coverage envelope, and
// one power table kappa^k per cone, shared by every robot zig-zagging
// in it. A robot is a view of its corners plus its tail; its zig-zag
// turns up to coverageFactor anchor distances count as corners too, and
// are derived from the table with ZigZag.TurningPoint's arithmetic when
// a query reaches them. The envelope is monotone in the corner index,
// so "which segment first reaches x" is a binary search, over the
// stored corners or over every other turn. Past the corners every robot
// answers through its tail's closed-form FirstVisit (none for a robot
// that halts), so compiled answers are defined for every input the
// simulator accepts.
//
// All crossing times are computed with the same arithmetic as
// internal/sim (identical segment endpoints, identical interpolation),
// so compiled results agree with the reference engine bit-for-bit on
// covered targets; the differential test in this package enforces
// agreement to 1e-9 across randomized plans.
//
// The same power tables answer a plan's geometry: Walk lists a robot's
// turning points up to a horizon, its start-up legs and then its
// zig-zag turns from the table, exactly as the walk over the
// trajectory's motion segments lists them, and stops at a caller's
// limit. CR measures the competitive ratio just past those turning
// points (cr.go). The questions that follow a robot past its first
// visit read the legs and tail Walk reads, with trajectory's function
// forms of VisitsUntil and SegmentsUntil: the event timeline
// (events.go) and the p-faulty expected-time series (expected.go). So
// no question reads a sim.Plan; one built from trajectories is only a
// source.
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

	"linesearch/internal/fault"
	"linesearch/internal/geom"
	"linesearch/internal/schedule"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
	"linesearch/internal/trajectory"
)

// Compilation bounds: a zig-zag's turning points count as corners
// until its envelope covers |x| <= coverageFactor*|anchor| on both
// sides, far beyond the service's query horizon, or it has maxCorners
// corners (a guard for cones whose expansion factor is barely above 1).
// Targets beyond a robot's envelope, capped or not, are answered by its
// tail.
const (
	coverageFactor = 1e8
	maxCorners     = 4096
)

// robot is one robot's view of its plan's arena plus the tail that
// answers targets beyond its corners. Robots sharing a source
// trajectory (the doubling baseline) share one view.
//
// A robot's corners are its finite part's, stored, then for a zig-zag
// tail its turning points k = 1..turns past the anchor, derived from
// its cone's power table when a query reaches them. Corner indices run
// over both: the anchor, the last stored corner, is index stored()-1
// and turn k is index stored()-1+k.
type robot struct {
	// corners holds the finite part's corners (the first leg's start,
	// every leg's end and the tail's anchor, as cursor.keep keeps them)
	// as runs of four: time, position and the running coverage envelope
	// min(pos[0..i]) and max(pos[0..i]). Times never decrease and motion
	// between consecutive corners is uniform. Widened past the anchor by
	// the farthest turn so far on each side, the envelope's minimum is
	// nonincreasing and its maximum nondecreasing in the corner index,
	// which makes "first corner index whose envelope contains x"
	// binary-searchable.
	corners []float64
	// lo and hi are the envelope at the last corner, stored or derived.
	lo, hi float64
	// turns counts the zig-zag turning points that are corners. Turn k
	// lies at ±mag·kappa^k, on the anchor's side for even k (flip: the
	// anchor is negative), at time beta·|x| but no earlier than anchorT,
	// the anchor's kept time. kappa^k is pow[k], from the power table
	// every robot in the cone shares.
	turns              int
	mag, beta, anchorT float64
	flip               bool
	pow                []float64
	// tail answers targets outside the envelope; nil when the robot
	// halts, so it never visits them.
	tail trajectory.Tail
}

// Plan is a compiled search plan: one robot view per robot plus the
// fault model. It is safe for concurrent use: the arena never changes
// after it is built, the phase tables (see phase.go) are built once per
// rank and published atomically, and per-query scratch lives in
// Evaluators (see eval.go).
type Plan struct {
	robots []robot
	// model's detection rank is the distinct-visitor rank at which the
	// detection rule fires: f+1 in the crash model, f+votes under the
	// Byzantine voting rule. The kernel's selection path is identical
	// either way — only k changes.
	model fault.Model
	// The robots' source, whose legs and tails the arena and the corner
	// walk read: the trajectories of a compiled sim.Plan, or else the
	// zig-zag schedule in closed form.
	trajs []*trajectory.Trajectory
	sched *schedule.Schedule
	evals evaluatorPool
	// sym is the fleet's self-similarity, detected at compile time;
	// table is the phase table of rank, otherRanks (allocated on first
	// use) those of every other rank, indexed by rank.
	sym        symmetry
	table      rankTable
	otherRanks atomic.Pointer[[]rankTable]
}

// FromStrategy builds the kernel of st's plan for (n, f) under the
// strategy's fault model, with sim.FromStrategy's refusals: from the
// closed form when the plan is a zig-zag schedule (sim.Schedule), else
// from the sim.Plan's trajectories.
func FromStrategy(st strategy.Strategy, n, f int) (*Plan, error) {
	sched, m, ok, err := sim.Schedule(st, n, f)
	if err != nil {
		return nil, err
	}
	if ok {
		return CompileSchedule(sched, m), nil
	}
	p, err := sim.FromStrategy(st, n, f)
	if err != nil {
		return nil, err
	}
	return Compile(p)
}

// Compile flattens every trajectory of p into the binary-searchable
// corner representation.
func Compile(p *sim.Plan) (*Plan, error) {
	return compile(p, maxCorners)
}

// compile is Compile with the per-trajectory corner cap as a
// parameter, so tests can force targets past the corners.
// sim.NewPlanModel has already validated every trajectory.
func compile(p *sim.Plan, cornerCap int) (*Plan, error) {
	if p == nil {
		return nil, fmt.Errorf("compiled: nil plan")
	}
	trajs := p.Trajectories()
	cp := &Plan{robots: make([]robot, len(trajs)), model: p.Model(), trajs: trajs}
	return cp.build(cornerCap), nil
}

// CompileSchedule compiles the plan of schedule s under fault model m
// straight from its robots' closed forms, with no trajectory built: it
// is Compile of the sim.Plan of s's trajectories under m, bit for bit.
// sim.Schedule returns s and m for the strategies that have them.
func CompileSchedule(s *schedule.Schedule, m fault.Model) *Plan {
	cp := &Plan{robots: make([]robot, s.N()), model: m, sched: s}
	return cp.build(maxCorners)
}

// build fills cp's robots from its source. It counts every distinct
// source's finite corners and every cone's power table, allocates one
// arena for all of them and fills it robot by robot.
func (cp *Plan) build(cornerCap int) *Plan {
	// A finite part is counted exactly as arena.compile keeps it.
	// Consecutive robots in one cone share its table, so a fleet in one
	// cone (every strategy's) holds one.
	var legBuf [2]geom.Segment
	size, pows, kappa := 0, 0, 0.0
	for i := range cp.robots {
		if cp.shares(i) {
			continue
		}
		legs, tail := cp.source(i, &legBuf)
		var c cursor
		prefix(legs, tail, func(p geom.Point) { c.keep(p) })
		size += c.n
		if z, ok := tail.(*trajectory.ZigZag); ok {
			if k := z.Cone().ExpansionFactor(); k != kappa {
				kappa = k
				pows += zigzagTurns(k, cornerCap) + 1
			}
		}
	}
	buf := make([]float64, 4*size+pows)
	a := arena{corners: buf[: 0 : 4*size], pows: buf[4*size : 4*size]}
	for i := range cp.robots {
		if cp.shares(i) {
			cp.robots[i] = cp.robots[i-1]
			continue
		}
		legs, tail := cp.source(i, &legBuf)
		cp.robots[i] = a.compile(legs, tail, cornerCap)
	}
	cp.evals.plan = cp
	cp.sym = detectSymmetry(cp.robots)
	return cp
}

// N returns the number of robots.
func (cp *Plan) N() int { return len(cp.robots) }

// Model returns the plan's fault model.
func (cp *Plan) Model() fault.Model { return cp.model }

// shares reports whether robot i shares robot i-1's source trajectory
// (the doubling baseline's robots do), and so its view.
func (cp *Plan) shares(i int) bool {
	return cp.trajs != nil && i > 0 && cp.trajs[i] == cp.trajs[i-1]
}

// source returns robot i's start-up legs, as its trajectory holds them
// or, for a schedule, as the closed form gives them (appended to buf),
// and its tail.
func (cp *Plan) source(i int, buf *[2]geom.Segment) ([]geom.Segment, trajectory.Tail) {
	if cp.trajs != nil {
		tr := cp.trajs[i]
		return tr.Legs(), tr.TailOf()
	}
	rb := cp.sched.Robot(i)
	return rb.AppendLegs(buf[:0]), &rb.Tail
}

// prefix calls add with each corner of a finite part: the first leg's
// start, every leg's end and the tail's anchor.
func prefix(legs []geom.Segment, tail trajectory.Tail, add func(geom.Point)) {
	if len(legs) > 0 {
		add(legs[0].From)
		for _, leg := range legs {
			add(leg.To)
		}
	}
	if tail != nil {
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

// zigzagTurns bounds the turning points past the anchor that count as
// corners of a zig-zag of expansion factor kappa. Turn k lies at
// |x_0|*kappa^k, and a product with |x_0| never reverses a comparison
// with coverageFactor*|x_0|: the first k with kappa^k >= coverageFactor
// covers one side and k+1 the other. Past cornerCap the cap binds
// instead, so the bound is at most cornerCap+1. kappa^k stays finite up
// to it: it is below coverageFactor*kappa^2 and kappa < 2^53.
func zigzagTurns(kappa float64, cornerCap int) int {
	k := cornerCap
	if v := math.Log(coverageFactor) / math.Log(kappa); v < float64(cornerCap) {
		k = max(int(v)-1, 1)
	}
	for k < cornerCap && math.Pow(kappa, float64(k)) < coverageFactor {
		k++
	}
	return k + 1
}

// arena is a plan's corner runs and power tables, sized before the
// first value is written; each robot's view is the corners
// arena.compile appended for it and its cone's table.
type arena struct {
	corners, pows []float64
	// kappa and pow are the cone and table of the last zig-zag compiled.
	kappa float64
	pow   []float64
}

// compile appends the finite corners of a robot's legs and tail to the
// arena and returns its view. A zig-zag tail's turning points count as
// corners until the envelope covers coverageFactor times the anchor's
// distance on both sides, stopping at cornerCap corners, where a
// turning point leaves the float64 range, or where the cone's table
// ends; the tail's closed form answers past them.
func (a *arena) compile(legs []geom.Segment, tail trajectory.Tail, cornerCap int) robot {
	start := len(a.corners)
	var c cursor
	prefix(legs, tail, func(p geom.Point) {
		if p, ok := c.keep(p); ok {
			a.corners = append(a.corners, p.T, p.X, c.lo, c.hi)
		}
	})
	ct := robot{corners: a.corners[start:], tail: tail}
	switch t := ct.tail.(type) {
	case *trajectory.Halt:
		// A halting robot never extends coverage beyond its anchor,
		// which is already its last corner.
		ct.tail = nil
	case *trajectory.ZigZag:
		ct.mag, ct.beta, ct.flip = math.Abs(t.Anchor().X), t.Cone().Beta(), t.Anchor().X < 0
		ct.anchorT = c.last.T
		ct.pow = a.table(t.Cone().ExpansionFactor(), cornerCap)
		cover := coverageFactor * ct.mag
		for k := 1; c.n < cornerCap && (c.hi < cover || c.lo > -cover) && k < len(ct.pow); k++ {
			x := ct.mag * ct.pow[k]
			if math.IsInf(ct.beta*x, 0) {
				break // beyond float64: the tail's closed form answers
			}
			if (k%2 != 0) != ct.flip {
				x = -x
			}
			if x < c.lo {
				c.lo = x
			}
			if x > c.hi {
				c.hi = x
			}
			c.n++
			ct.turns++
		}
	}
	ct.lo, ct.hi = c.lo, c.hi
	return ct
}

// table returns the power table of expansion factor kappa, appending a
// new one unless the previous zig-zag's cone had the same factor. It
// holds kappa^k for k up to zigzagTurns, computed with the same
// math.Pow as ZigZag.TurningPoint. The powers must not fall: the
// farthest turn on a side is then its latest, and turn times never
// decrease. Should rounding ever put kappa^k below kappa^(k-1) (no cone
// tested does), the table ends there and the tail answers beyond.
func (a *arena) table(kappa float64, cornerCap int) []float64 {
	if a.pow != nil && kappa == a.kappa {
		return a.pow
	}
	n := zigzagTurns(kappa, cornerCap) + 1
	start := len(a.pows)
	a.pows = a.pows[:start+n]
	pow := a.pows[start:]
	for k := range pow {
		if pow[k] = math.Pow(kappa, float64(k)); k > 0 && pow[k] < pow[k-1] {
			pow = pow[:k]
			break
		}
	}
	a.kappa, a.pow = kappa, pow
	return pow
}

// stored returns the robot's stored corner count.
func (ct *robot) stored() int { return len(ct.corners) / 4 }

// count returns the robot's corner count: its stored corners and its
// zig-zag turns.
func (ct *robot) count() int { return ct.stored() + ct.turns }

// corner returns corner i's position and time.
func (ct *robot) corner(i int) (x, t float64) {
	if n := ct.stored(); i >= n {
		return ct.turn(i - n + 1)
	}
	return ct.corners[4*i+1], ct.corners[4*i]
}

// turn returns zig-zag turn k as turnAt does, the time raised to the
// anchor's kept time as cursor.keep's clamp to the previous corner
// would raise it (turn times never decrease, so only the anchor's can
// be later); turn 0 is the anchor as kept.
func (ct *robot) turn(k int) (x, t float64) {
	if x, t = ct.turnAt(k); t < ct.anchorT {
		t = ct.anchorT
	}
	return x, t
}

// turnAt returns zig-zag turn k with ZigZag.TurningPoint's arithmetic,
// x = ±|x_0|·kappa^k and t = beta·|x|.
func (ct *robot) turnAt(k int) (x, t float64) {
	x = ct.mag * ct.pow[k]
	t = ct.beta * x
	if (k%2 != 0) != ct.flip {
		x = -x
	}
	return x, t
}

// covered reports whether the stored envelope at corner index i
// contains x.
func (ct *robot) covered(i int, x float64) bool {
	return ct.corners[4*i+2] <= x && x <= ct.corners[4*i+3]
}

// firstVisit returns the robot's earliest time standing on x. hint is
// the covering corner index returned by a previous query (or a negative
// value for none); for sorted or nearby targets it narrows the binary
// search to a few corners. The returned index is the new hint; ok
// reports whether the robot ever visits x.
func (ct *robot) firstVisit(x float64, hint int) (t float64, idx int, ok bool) {
	if !(ct.lo <= x && x <= ct.hi) {
		if ct.tail == nil {
			return 0, hint, false
		}
		t, ok := ct.tail.FirstVisit(x)
		return t, hint, ok
	}
	anchor := len(ct.corners)/4 - 1
	if lo, hi := ct.corners[4*anchor+2], ct.corners[4*anchor+3]; x < lo || x > hi {
		// The turns cover x but the stored corners do not. Beyond the
		// stored envelope's upper (lower) end, the envelope at turn k
		// contains x exactly when the farthest turn so far on the
		// positive (negative) side, which is the latest, reaches |x|.
		// So the first covering corner is the first turn j of that
		// side's parity with mag·kappa^j >= |x|: candidates
		// j = first + 2m for m in [lo, hi]. A hint covers x exactly when
		// the last candidate up to it does. x is then crossed on the way
		// to turn j from turn j-1, on the other side (turn 0 being the
		// anchor).
		neg := x < lo
		ax, first := x, 2
		if neg {
			ax = -x
		}
		if neg != ct.flip {
			first = 1
		}
		side := ct.pow[first:]
		lo, hi := 0, (ct.turns-first)>>1
		if m := (hint - anchor - first) >> 1; uint(m) <= uint(hi) {
			if ct.mag*side[2*m] >= ax {
				hi = m
			} else {
				lo = m + 1
			}
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ct.mag*side[2*mid] >= ax {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		j := first + 2*lo
		x0, t0 := ct.turn(j - 1)
		x1, t1 := ct.turn(j)
		return interpolate(x, x0, t0, x1, t1), anchor + j, true
	}

	// Find the minimal stored corner whose envelope contains x. The
	// predicate covered(i, x) is monotone in i, so the previous query's
	// index splits the search: a still-covering hint bounds from above,
	// a stale one from below.
	lo, hi := 0, anchor
	if hint >= 0 && hint <= anchor {
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
		return ct.corners[0], 0, true
	}
	c := ct.corners[4*lo-4 : 4*lo+2]
	return interpolate(x, c[1], c[0], c[5], c[4]), lo, true
}

// interpolate returns the time the segment from (x0, t0) to (x1, t1)
// passes x, with the same arithmetic as geom.Segment.FirstVisit. The
// displacement cannot be zero: a stationary segment never extends the
// envelope.
func interpolate(x, x0, t0, x1, t1 float64) float64 {
	frac := (x - x0) / (x1 - x0)
	return t0 + frac*(t1-t0)
}
