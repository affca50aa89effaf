package sim

import (
	"fmt"
	"math"

	"linesearch/internal/geom"
	"linesearch/internal/trajectory"
)

// WithTurnCost returns a derived plan in which every robot pauses for
// cost time units at each direction reversal — the turn-cost model of
// Demaine, Fekete and Gal ("Online searching with turn cost", cited as
// [19] in the paper), applied to parallel faulty search. All existing
// queries (SearchTime, Timeline, ...) work on the derived
// plan unchanged.
//
// Because the pauses break the self-similar structure of the analytic
// tails, the derived trajectories are materialised as finite polylines
// covering the original motion up to the given horizon (original time;
// the derived trajectory extends beyond it by the accumulated pauses)
// and halt afterwards. Queries whose answers lie beyond the horizon see
// halted robots, so choose horizon comfortably above
// CR * xmax + cost * turns(xmax).
func (p *Plan) WithTurnCost(cost, horizon float64) (*Plan, error) {
	if cost < 0 || math.IsNaN(cost) || math.IsInf(cost, 0) {
		return nil, fmt.Errorf("sim: turn cost must be finite and non-negative, got %g", cost)
	}
	if !(horizon > 0) || math.IsInf(horizon, 0) {
		return nil, fmt.Errorf("sim: horizon must be positive and finite, got %g", horizon)
	}
	derived := make([]*trajectory.Trajectory, 0, len(p.trajs))
	for i, tr := range p.trajs {
		d, err := delayAtTurns(tr, cost, horizon)
		if err != nil {
			return nil, fmt.Errorf("sim: turn-cost transform of robot %d: %w", i, err)
		}
		derived = append(derived, d)
	}
	return NewPlanModel(derived, p.model)
}

// delayAtTurns rebuilds the trajectory's polyline up to horizon with a
// pause of length cost inserted at every direction reversal.
func delayAtTurns(tr *trajectory.Trajectory, cost, horizon float64) (*trajectory.Trajectory, error) {
	segs := tr.SegmentsUntil(horizon)
	if len(segs) == 0 {
		return nil, fmt.Errorf("trajectory empty before horizon %g", horizon)
	}
	delay := 0.0
	legs := make([]geom.Segment, 0, 2*len(segs))
	for i, s := range segs {
		if i > 0 && cost > 0 && segs[i-1].Reverses(s) {
			// Pause at the corner before continuing.
			at := geom.Point{X: s.From.X, T: s.From.T + delay}
			delay += cost
			legs = append(legs, geom.Segment{From: at, To: geom.Point{X: s.From.X, T: s.From.T + delay}})
		}
		legs = append(legs, geom.Segment{
			From: geom.Point{X: s.From.X, T: s.From.T + delay},
			To:   geom.Point{X: s.To.X, T: s.To.T + delay},
		})
	}
	end := legs[len(legs)-1].To
	halt, err := trajectory.NewHalt(end)
	if err != nil {
		return nil, err
	}
	return trajectory.New(legs, halt)
}
