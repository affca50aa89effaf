package compiled

import (
	"math"
	"slices"

	"linesearch/internal/geom"
	"linesearch/internal/sim"
	"linesearch/internal/trajectory"
)

// oracleRobot is a robot with every corner stored, the finite part's
// and the tail's turning points alike, in four arrays: the reference
// for the turns robot derives from its cone's power table.
type oracleRobot struct {
	times, pos, cumMin, cumMax []float64
	tail                       trajectory.Tail
}

// compileOracleRobot appends tr's corners: the finite part, then for a
// zig-zag tail its turning points from ZigZag.TurningPoint until the
// envelope covers coverageFactor times the anchor's distance on both
// sides, stopping at cornerCap corners or where a turning point leaves
// the float64 range.
func compileOracleRobot(tr *trajectory.Trajectory, cornerCap int) oracleRobot {
	var o oracleRobot
	var c cursor
	add := func(p geom.Point) {
		if p, ok := c.keep(p); ok {
			o.times = append(o.times, p.T)
			o.pos = append(o.pos, p.X)
			o.cumMin = append(o.cumMin, c.lo)
			o.cumMax = append(o.cumMax, c.hi)
		}
	}
	prefix(tr.Legs(), tr.TailOf(), add)

	o.tail = tr.TailOf()
	switch t := o.tail.(type) {
	case *trajectory.Halt:
		o.tail = nil
	case *trajectory.ZigZag:
		cover := coverageFactor * math.Abs(t.Anchor().X)
		for k := 1; c.n < cornerCap && (c.hi < cover || c.lo > -cover); k++ {
			p := t.TurningPoint(k)
			if math.IsInf(p.X, 0) || math.IsInf(p.T, 0) {
				break
			}
			add(p)
		}
	}
	return o
}

func (o *oracleRobot) covered(i int, x float64) bool {
	return o.cumMin[i] <= x && x <= o.cumMax[i]
}

// firstVisit is the binary search over stored corners, with the same
// hint protocol as robot.firstVisit.
func (o *oracleRobot) firstVisit(x float64, hint int) (float64, int, bool) {
	last := len(o.times) - 1
	if !o.covered(last, x) {
		if o.tail == nil {
			return 0, hint, false
		}
		t, ok := o.tail.FirstVisit(x)
		return t, hint, ok
	}
	lo, hi := 0, last
	if hint >= 0 && hint <= last {
		if o.covered(hint, x) {
			hi = hint
		} else {
			lo = hint + 1
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.covered(mid, x) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return o.times[0], 0, true
	}
	x0, x1 := o.pos[lo-1], o.pos[lo]
	frac := (x - x0) / (x1 - x0)
	return o.times[lo-1] + frac*(o.times[lo]-o.times[lo-1]), lo, true
}

// Oracle is a plan compiled with every corner stored, with one hint per
// robot: the reference the derived tail turns are checked against.
type Oracle struct {
	robots []oracleRobot
	hints  []int
	visits []float64
}

// NewOracle compiles p with at most cornerCap corners per trajectory.
func NewOracle(p *sim.Plan, cornerCap int) *Oracle {
	trajs := p.Trajectories()
	o := &Oracle{robots: make([]oracleRobot, len(trajs)), hints: make([]int, len(trajs))}
	for i, tr := range trajs {
		o.robots[i] = compileOracleRobot(tr, cornerCap)
		o.hints[i] = -1
	}
	return o
}

// Turns returns robot i's stored corner positions.
func (o *Oracle) Turns(i int) []float64 { return o.robots[i].pos }

// FirstVisit is robot i's first visit at x through its hint, and the
// covering corner index it leaves as the new hint.
func (o *Oracle) FirstVisit(i int, x float64) (t float64, idx int, ok bool) {
	t, o.hints[i], ok = o.robots[i].firstVisit(x, o.hints[i])
	return t, o.hints[i], ok
}

// Visits returns every robot's first visit at x through its hint,
// sorted, in a buffer the next call reuses: the k-th distinct visit is
// entry k-1, +Inf past the end.
func (o *Oracle) Visits(x float64) []float64 {
	o.visits = o.visits[:0]
	for i := range o.robots {
		if t, _, ok := o.FirstVisit(i, x); ok {
			o.visits = append(o.visits, t)
		}
	}
	slices.Sort(o.visits)
	return o.visits
}
