package adversary

import (
	"fmt"
	"math"

	"linesearch/internal/sim"
)

// This file replays the Theorem 2 proof against concrete plans. It is a
// test oracle: the tests check production plans and the Lemma 6
// classification against it.

// Lemma7Bound returns 2x + y: by Lemma 7, a robot following a positive
// or negative trajectory for x cannot reach both +y and -y before this
// time, for any x, y >= 1.
func Lemma7Bound(x, y float64) float64 { return 2*x + y }

// Lemma6Deadline returns 3x + 2: by Lemma 6, a robot that visits both
// +-x strictly before this time must follow a positive or a negative
// trajectory for x.
func Lemma6Deadline(x float64) float64 { return 3*x + 2 }

// RobotReport describes one robot's behaviour at one ladder level.
type RobotReport struct {
	// Robot is the robot index in the plan.
	Robot int
	// Class is the Lemma 6 classification for this level's x.
	Class Class
	// VisitPlus and VisitMinus are the first-visit times of +x and -x
	// (+Inf if never visited).
	VisitPlus, VisitMinus float64
	// CoversLevel reports whether the robot visits both +-x strictly
	// before the adversary's budget alpha*x.
	CoversLevel bool
}

// LevelReport describes one level of the adversarial ladder: which
// robots manage to visit both +-x_i within the budget alpha*x_i, and
// how they are classified. The Theorem 2 induction shows that an
// algorithm with competitive ratio below alpha needs a distinct
// positive-or-negative robot per level — impossible with n levels plus
// the +-1 endgame.
type LevelReport struct {
	// Level is the ladder index i (Level == -1 denotes the final +-1
	// stage of the proof).
	Level int
	// X is the level's distance (x_i, or 1 for the final stage).
	X float64
	// Budget is alpha * X: visits at or after this time don't help the
	// algorithm beat the bound.
	Budget float64
	// Robots holds one report per robot of the plan.
	Robots []RobotReport
	// Covered reports whether at least f+1 distinct robots visit both
	// +-X within the budget... see AnalyzeLadder for the exact rule
	// used (both points, strictly before Budget).
	Covered bool
}

// LadderAnalysis is the full proof trace of the Theorem 2 argument
// against one concrete plan.
type LadderAnalysis struct {
	Ladder Ladder
	Levels []LevelReport
	// UncoveredLevel is the index into Levels of the first level at
	// which the plan fails to get f+1 robots to both endpoints in
	// budget — the level where the adversary wins (-1 if every level is
	// covered, which contradicts Theorem 2 and indicates a bug).
	UncoveredLevel int
}

// AnalyzeLadder replays the Theorem 2 proof against the plan: for every
// ladder level (and the final +-1 stage) it records which robots reach
// both endpoints within the adversary's budget and how Lemma 6
// classifies them. Theorem 2 guarantees at least one level is
// uncovered; the adversary places the target at an endpoint of that
// level that fewer than f+1 robots reach in time.
func AnalyzeLadder(p *sim.Plan) (*LadderAnalysis, error) {
	ladder, err := NewLadder(len(p.Trajectories()))
	if err != nil {
		return nil, err
	}
	analysis := &LadderAnalysis{Ladder: ladder, UncoveredLevel: -1}
	trajs := p.Trajectories()

	levels := make([]struct {
		idx int
		x   float64
	}, 0, len(ladder.Points)+1)
	for i, x := range ladder.Points {
		levels = append(levels, struct {
			idx int
			x   float64
		}{i, x})
	}
	levels = append(levels, struct {
		idx int
		x   float64
	}{-1, 1})

	for _, lv := range levels {
		report := LevelReport{Level: lv.idx, X: lv.x, Budget: ladder.Alpha * lv.x}
		covering := 0
		for ri, tr := range trajs {
			rr := RobotReport{Robot: ri, VisitPlus: math.Inf(1), VisitMinus: math.Inf(1)}
			if t, ok := tr.FirstVisit(lv.x); ok {
				rr.VisitPlus = t
			}
			if t, ok := tr.FirstVisit(-lv.x); ok {
				rr.VisitMinus = t
			}
			if lv.x > 1 {
				cls, err := ClassifyTrajectory(tr, lv.x)
				if err != nil {
					return nil, fmt.Errorf("adversary: classifying robot %d at level %d: %w", ri, lv.idx, err)
				}
				rr.Class = cls
			}
			rr.CoversLevel = rr.VisitPlus < report.Budget && rr.VisitMinus < report.Budget
			if rr.CoversLevel {
				covering++
			}
			report.Robots = append(report.Robots, rr)
		}
		// The adversary needs only one endpoint to be under-visited: if
		// fewer than f+1 robots reach +x (or -x) in budget, the target
		// goes there. Both-endpoint coverage by f+1 robots is necessary
		// (not sufficient) for the algorithm, and is what the proof's
		// pigeonhole argument counts.
		plus, minus := 0, 0
		for _, rr := range report.Robots {
			if rr.VisitPlus < report.Budget {
				plus++
			}
			if rr.VisitMinus < report.Budget {
				minus++
			}
		}
		report.Covered = plus > p.Model().F && minus > p.Model().F
		if !report.Covered && analysis.UncoveredLevel == -1 {
			analysis.UncoveredLevel = len(analysis.Levels)
		}
		analysis.Levels = append(analysis.Levels, report)
	}
	return analysis, nil
}
