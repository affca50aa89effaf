package compiled

import "linesearch/internal/sim"

// Test hooks: the external tests and benchmarks reach the kernel's
// per-goroutine evaluator and its internals through these.

// CompileCapped is Compile with at most cornerCap corners per
// trajectory, so targets beyond the capped envelope reach the tails.
func CompileCapped(p *sim.Plan, cornerCap int) (*Plan, error) { return compile(p, cornerCap) }

// Corners returns the total number of corner points across distinct
// trajectories, stored or derived from a power table. Robots sharing a
// trajectory share their view of the arena.
func (p *Plan) Corners() int {
	total := 0
	for i := range p.robots {
		if i == 0 || &p.robots[i].corners[0] != &p.robots[i-1].corners[0] {
			total += p.robots[i].count()
		}
	}
	return total
}

// Evaluator returns a scratch evaluator for this plan. Callers that
// run many queries from one goroutine should hold one evaluator for
// the whole run and Release it at the end.
func (p *Plan) Evaluator() *Evaluator { return p.evals.get() }

// Release returns the evaluator to its plan's pool. The evaluator must
// not be used afterwards.
func (e *Evaluator) Release() { e.plan.evals.put(e) }

// FirstVisit returns robot i's earliest time standing on x, with ok
// reporting whether the robot ever visits x.
func (e *Evaluator) FirstVisit(i int, x float64) (float64, bool) {
	if i < 0 || i >= len(e.plan.robots) {
		return 0, false
	}
	t, idx, ok := e.plan.robots[i].firstVisit(x, e.hints[i])
	e.hints[i] = idx
	return t, ok
}

// FirstVisitAt is FirstVisit that also returns the covering corner
// index it leaves as robot i's hint.
func (e *Evaluator) FirstVisitAt(i int, x float64) (float64, int, bool) {
	t, ok := e.FirstVisit(i, x)
	return t, e.hints[i], ok
}

// NewEvaluator returns an evaluator outside the plan's pool, with no
// hints set.
func (p *Plan) NewEvaluator() *Evaluator { return newEvaluator(p) }

// PhaseGrid describes where a self-similar plan's phase tables answer:
// |x| in [Lo, Hi], periods of LogSigma in ln|x| starting at LogBase,
// and per side (0: x > 0) the phase of the one fleet turning point a
// period holds, with a zone of Zone periods around it.
type PhaseGrid struct {
	Lo, Hi, LogBase, LogSigma, Zone float64
	Turn                            [2]float64
}

// Grid returns the plan's phase grid; ok is false without a symmetry.
func (p *Plan) Grid() (PhaseGrid, bool) {
	s := &p.sym
	return PhaseGrid{Lo: s.lo, Hi: s.hi, LogBase: s.logBase, LogSigma: s.logSigma, Zone: s.zone, Turn: s.turn}, s.ok
}

// BuildTable builds and installs rank k's phase table now, whatever the
// plan's size and scan count, and reports whether its certificate held.
func (e *Evaluator) BuildTable(k int) bool {
	if !e.plan.sym.ok {
		return false
	}
	rt := e.plan.tableSlot(k)
	if rt.table.Load() != nil {
		return true
	}
	t, ok := e.buildTable(k)
	if ok {
		rt.table.Store(t)
	}
	return ok
}

// TableKth answers the k-th first visit at x from rank k's installed
// phase table (see BuildTable); ok is false without one or when x is
// outside the table's range.
func (e *Evaluator) TableKth(x float64, k int) (float64, bool) {
	t := e.plan.tableSlot(k).table.Load()
	if t == nil {
		return 0, false
	}
	return e.tableKth(t, x, k)
}

// ScanKth answers the k-th first visit at x by scanning every robot,
// the oracle of the phase tables.
func (e *Evaluator) ScanKth(x float64, k int) float64 { return e.scan(x, k) }

// HasTable reports whether rank k's phase table has been built.
func (p *Plan) HasTable(k int) bool { return p.tableSlot(k).table.Load() != nil }
