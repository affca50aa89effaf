package engine

import (
	"fmt"

	"linesearch/internal/fault"
	"linesearch/internal/sim"
)

// FromPlan builds an Engine over a sim plan's trajectories with a
// concrete fault assignment: robot i runs plan trajectory i at unit
// speed with behaviour set[i] (a nil set means all reliable). PFaulty
// entries inherit the model's per-visit failure probability P; the vote
// threshold defaults to the model's (opts.Votes overrides). This is the
// bridge the differential tests drive: an engine built this way must
// reproduce sim.Plan.DetectionTime exactly for deterministic kinds.
func FromPlan(p *sim.Plan, set fault.Set, opts Options) (*Engine, error) {
	if set == nil {
		set = make(fault.Set, p.N())
	}
	if len(set) != p.N() {
		return nil, fmt.Errorf("engine: fault assignment has %d entries for %d robots", len(set), p.N())
	}
	model := p.Model()
	robots := make([]RobotSpec, p.N())
	for i, tr := range p.Trajectories() {
		robots[i] = RobotSpec{Traj: tr, Kind: set[i]}
		if set[i] == fault.PFaulty {
			robots[i].P = model.P
		}
	}
	if opts.Votes == 0 {
		opts.Votes = model.VotesRequired()
	}
	return New(robots, opts)
}

// ExpectedSearchTime is the expected time to find a target at x on plan
// p when every robot misses each visit of x independently with
// probability miss (0 makes detection certain), after the adversary has
// crashed outright the f robots that arrive at x first. speeds follows
// the public API: nil means unit speeds, a single entry broadcasts to
// the whole fleet, otherwise there is one entry per robot. The crash
// set is chosen at those speeds, so a slow early visitor can escape it.
// The result is exact (see ExpectedDetectionTime); +Inf means the
// expectation diverges or detection is not almost sure.
func ExpectedSearchTime(p *sim.Plan, x, miss float64, speeds []float64) (float64, error) {
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
		return 0, fmt.Errorf("engine: speed vector has %d entries for %d robots", len(speeds), n)
	}
	specs := make([]RobotSpec, n)
	for i, tr := range p.Trajectories() {
		specs[i] = RobotSpec{Traj: tr}
		if speeds != nil {
			specs[i].Speed = speeds[i]
		}
		if miss > 0 {
			specs[i].Kind, specs[i].P = fault.PFaulty, miss
		}
	}
	arrivals := p.FirstVisitsAtSpeeds(x, speeds)
	for _, v := range arrivals[:min(p.F(), len(arrivals))] {
		specs[v.Robot].Kind, specs[v.Robot].P = fault.Crash, 0
	}
	return ExpectedDetectionTime(specs, 1, x, ExpectedOpts{})
}
