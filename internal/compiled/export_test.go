package compiled

import "linesearch/internal/sim"

// Test hooks: the external tests and benchmarks reach the kernel's
// per-goroutine evaluator and its internals through these.

// CompileCapped is Compile with at most cornerCap corners per
// trajectory, forcing the fallback path on targets beyond the capped
// envelope.
func CompileCapped(p *sim.Plan, cornerCap int) (*Plan, error) { return compile(p, cornerCap) }

// DetectionRank returns the distinct-visitor rank at which detection is
// guaranteed, mirroring sim.Plan.DetectionRank.
func (p *Plan) DetectionRank() int { return p.rank }

// Corners returns the total number of materialised corner points across
// distinct trajectories — a memory-footprint observability hook.
func (p *Plan) Corners() int {
	seen := make(map[*ctraj]bool, len(p.robots))
	total := 0
	for _, ct := range p.robots {
		if !seen[ct] {
			seen[ct] = true
			total += len(ct.times)
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
