// Package sim evaluates search plans exactly: given the trajectories of
// n robots and a fault model (crash or Byzantine, budget f), it computes
// per-target first visits and the worst-case search time (the visit of
// the DetectionRank-th distinct robot — the adversary makes the earliest
// visitors faulty, and Byzantine detection additionally waits for
// enough truthful confirmations to outvote possible liars). It builds
// the plans internal/compiled compiles from trajectories, and a
// strategy's closed-form schedule where it has one. Every question a
// caller asks (the competitive ratio, detection under given faults,
// speeds, positions, event timelines and the expected detection time
// under per-visit detection failures) is answered by internal/compiled
// alone, from the kernel's corner walk, first visits and each robot's
// legs and tail; this package is its oracle.
//
// Nothing here is time-stepped; every quantity comes from the
// trajectories' closed-form visit queries, so results are exact up to
// float64 rounding.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"linesearch/internal/fault"
	"linesearch/internal/schedule"
	"linesearch/internal/strategy"
	"linesearch/internal/trajectory"
)

// Plan is an evaluated search plan: one trajectory per robot plus the
// fault model the plan must tolerate.
type Plan struct {
	trajs []*trajectory.Trajectory
	model fault.Model
}

// NewPlanModel wraps trajectories and an explicit fault model. The
// model must be satisfiable by the fleet: 0 <= f < n and detection
// rank (f + votes required) at most n, so the plan can in principle
// guarantee detection.
func NewPlanModel(trajs []*trajectory.Trajectory, m fault.Model) (*Plan, error) {
	n := len(trajs)
	if n == 0 {
		return nil, fmt.Errorf("sim: plan needs at least one robot")
	}
	if err := m.Validate(n); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	for i, tr := range trajs {
		if tr == nil {
			return nil, fmt.Errorf("sim: robot %d has nil trajectory", i)
		}
		if err := tr.Validate(); err != nil {
			return nil, fmt.Errorf("sim: robot %d: %w", i, err)
		}
	}
	return &Plan{trajs: append([]*trajectory.Trajectory(nil), trajs...), model: m}, nil
}

// Modeller is the optional strategy extension declaring the fault model
// a strategy's plans are meant to be evaluated under. Strategies that
// do not implement it get the crash model at the pair's budget.
type Modeller interface {
	FaultModel(n, f int) fault.Model
}

// FromStrategy builds the plan produced by st for (n, f) under the
// strategy's fault model, modelOf(st, n, f).
func FromStrategy(st strategy.Strategy, n, f int) (*Plan, error) {
	trajs, err := st.Build(n, f)
	if err != nil {
		return nil, buildError(st, n, f, err)
	}
	return NewPlanModel(trajs, modelOf(st, n, f))
}

// modelOf returns the fault model plans of st for (n, f) are evaluated
// under: the strategy's own when it declares one (Modeller), the crash
// model at budget f otherwise.
func modelOf(st strategy.Strategy, n, f int) fault.Model {
	if m, ok := st.(Modeller); ok {
		return m.FaultModel(n, f)
	}
	return fault.CrashModel(f)
}

// Schedule returns the zig-zag schedule in closed form and the fault
// model FromStrategy would build st's plan for (n, f) from, without
// building its trajectories. It refuses what FromStrategy refuses, with
// the same error. ok is false, with a nil error, when st's plan for the
// pair is not such a schedule (see strategy.Scheduler); FromStrategy
// builds it then.
func Schedule(st strategy.Strategy, n, f int) (s *schedule.Schedule, m fault.Model, ok bool, err error) {
	sc, ok := st.(strategy.Scheduler)
	if !ok {
		return nil, m, false, nil
	}
	if s, ok, err = sc.Schedule(n, f); err != nil {
		return nil, m, false, buildError(st, n, f, err)
	}
	if !ok {
		return nil, m, false, nil
	}
	// NewPlanModel's other checks hold for every schedule: it has at
	// least one robot, and none is nil or invalid.
	m = modelOf(st, n, f)
	if err := m.Validate(s.N()); err != nil {
		return nil, m, false, fmt.Errorf("sim: %w", err)
	}
	return s, m, true, nil
}

// buildError wraps the error st's builder returned for (n, f).
func buildError(st strategy.Strategy, n, f int, err error) error {
	return fmt.Errorf("sim: building %s(%d, %d): %w", st.Name(), n, f, err)
}

// Model returns the plan's fault model.
func (p *Plan) Model() fault.Model { return p.model }

// Trajectories returns the robots' trajectories, indexed by robot.
func (p *Plan) Trajectories() []*trajectory.Trajectory {
	return append([]*trajectory.Trajectory(nil), p.trajs...)
}

// Visit records one robot's first arrival at a queried position.
type Visit struct {
	Robot int
	T     float64
}

// FirstVisits returns, for each robot that visits x in finite time (a
// first visit past float64's range is none, as in the compiled kernel),
// its first visit, sorted by time (ties broken by robot index).
func (p *Plan) FirstVisits(x float64) []Visit {
	visits := make([]Visit, 0, len(p.trajs))
	for i, tr := range p.trajs {
		if t, ok := tr.FirstVisit(x); ok && !math.IsInf(t, 1) {
			visits = append(visits, Visit{Robot: i, T: t})
		}
	}
	// The visits are in robot order, so a stable sort by time breaks
	// ties by robot index.
	slices.SortStableFunc(visits, func(a, b Visit) int { return cmp.Compare(a.T, b.T) })
	return visits
}

// KthDistinctVisit returns the time of the k-th distinct robot's first
// visit to x (+Inf if fewer than k robots ever visit). SearchTime(x) is
// KthDistinctVisit(x, Model().DetectionRank()).
func (p *Plan) KthDistinctVisit(x float64, k int) (float64, error) {
	// Validate k before any trajectory queries: an out-of-range k must
	// not pay for (or be masked by) n first-visit computations.
	if k < 1 || k > len(p.trajs) {
		return 0, fmt.Errorf("sim: visitor index k=%d out of range [1, %d]", k, len(p.trajs))
	}
	visits := p.FirstVisits(x)
	if len(visits) < k {
		return math.Inf(1), nil
	}
	return visits[k-1].T, nil
}

// WithFaultBudget returns a plan over the same trajectories with a
// different fault budget (same model family), for evaluating the
// k-th-visitor objective of a fixed schedule at several budgets.
func (p *Plan) WithFaultBudget(f int) (*Plan, error) {
	return NewPlanModel(p.trajs, p.model.WithF(f))
}

// SearchTime returns the worst-case detection time for a target at x:
// the first visit by the DetectionRank-th distinct robot. In the crash
// model that is the (f+1)-st visitor (the adversary makes the f
// earliest visitors faulty); in the Byzantine model the adversary
// additionally forces the voting rule to wait for VotesRequired
// truthful claims, so detection lands on the (f+votes)-th visitor. It
// returns +Inf if fewer robots ever visit x — the plan cannot
// guarantee detection there.
func (p *Plan) SearchTime(x float64) float64 {
	rank := p.model.DetectionRank()
	visits := p.FirstVisits(x)
	if len(visits) < rank {
		return math.Inf(1)
	}
	return visits[rank-1].T
}

// Ratio returns SearchTime(x) / |x|, the quantity whose supremum over
// |x| >= 1 is the competitive ratio. x must be nonzero.
func (p *Plan) Ratio(x float64) (float64, error) {
	if x == 0 {
		return 0, fmt.Errorf("sim: ratio undefined at the origin")
	}
	return p.SearchTime(x) / math.Abs(x), nil
}
