// Package adversary implements the lower-bound machinery of Section 4:
// the adversarial target ladder x_i = 2^(i+1) / ((alpha-1)^i (alpha-3)),
// the positive/negative trajectory classification of Lemma 6, and a
// game that plays the Theorem 2 adversary against an arbitrary concrete
// search plan, producing a certified ratio witness.
package adversary

import (
	"fmt"
	"math"
	"sort"

	"linesearch/internal/analysis"
	"linesearch/internal/compiled"
	"linesearch/internal/fault"
	"linesearch/internal/trajectory"
)

// Ladder is the Theorem 2 adversary's candidate target set for n
// robots: the points x_0 > x_1 > ... > x_{n-1} > 1 (Equation 20),
// together with +-1. Whatever the algorithm does, some point in
// {+-1, +-x_i} is found no earlier than Alpha times its distance.
type Ladder struct {
	// Alpha is the bound certified by the ladder: the root of
	// (alpha-1)^n (alpha-3) = 2^(n+1).
	Alpha float64
	// Points holds x_0 > x_1 > ... > x_{n-1}, all > 1.
	Points []float64
}

// NewLadder constructs the adversarial ladder for n robots, using the
// largest alpha Theorem 2 permits.
func NewLadder(n int) (Ladder, error) {
	alpha, err := analysis.Theorem2Alpha(n)
	if err != nil {
		return Ladder{}, err
	}
	return NewLadderWithAlpha(n, alpha)
}

// NewLadderWithAlpha constructs the ladder for an explicit alpha, which
// must satisfy 3 < alpha and (alpha-1)^n (alpha-3) <= 2^(n+1) for the
// Theorem 2 argument to go through.
func NewLadderWithAlpha(n int, alpha float64) (Ladder, error) {
	if n < 1 {
		return Ladder{}, fmt.Errorf("adversary: ladder needs n >= 1, got %d", n)
	}
	if alpha <= 3 {
		return Ladder{}, fmt.Errorf("adversary: Theorem 2 requires alpha > 3, got %g", alpha)
	}
	nf := float64(n)
	if nf*math.Log(alpha-1)+math.Log(alpha-3) > (nf+1)*math.Ln2+1e-9 {
		return Ladder{}, fmt.Errorf("adversary: alpha = %g violates (alpha-1)^%d (alpha-3) <= 2^%d", alpha, n, n+1)
	}
	pts := make([]float64, n)
	for i := 0; i < n; i++ {
		// x_i = 2^(i+1) / ((alpha-1)^i (alpha-3)), computed in log space
		// to stay finite for large n.
		logx := float64(i+1)*math.Ln2 - float64(i)*math.Log(alpha-1) - math.Log(alpha-3)
		pts[i] = math.Exp(logx)
	}
	l := Ladder{Alpha: alpha, Points: pts}
	if err := l.validate(); err != nil {
		return Ladder{}, err
	}
	return l, nil
}

// validate checks Equation 20: x_0 > x_1 > ... > x_{n-1} > 1.
func (l Ladder) validate() error {
	for i, x := range l.Points {
		if x <= 1 {
			return fmt.Errorf("adversary: ladder point x_%d = %g not above 1", i, x)
		}
		if i > 0 && x >= l.Points[i-1] {
			return fmt.Errorf("adversary: ladder not strictly decreasing at x_%d", i)
		}
	}
	return nil
}

// Targets returns every candidate placement of the adversary: +-1 and
// +-x_i for each ladder point, in no particular order.
func (l Ladder) Targets() []float64 {
	out := make([]float64, 0, 2*len(l.Points)+2)
	out = append(out, 1, -1)
	for _, x := range l.Points {
		out = append(out, x, -x)
	}
	return out
}

// Class is the Lemma 6 classification of a robot trajectory with
// respect to a distance x > 1.
type Class int

// Trajectory classes.
const (
	// ClassPositive: first visits to {-x, -1, 1, x} occur in the order
	// 1, x, -1, -x.
	ClassPositive Class = iota + 1
	// ClassNegative: first visits occur in the order -1, -x, 1, x.
	ClassNegative
	// ClassNeither: any other order, or some point never visited. By
	// Lemma 6 such a robot cannot visit both +-x before time 3x+2.
	ClassNeither
)

// String returns a short label.
func (c Class) String() string {
	switch c {
	case ClassPositive:
		return "positive"
	case ClassNegative:
		return "negative"
	case ClassNeither:
		return "neither"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ClassifyTrajectory determines whether tr follows a positive or a
// negative trajectory for x (Lemma 6). x must exceed 1.
func ClassifyTrajectory(tr *trajectory.Trajectory, x float64) (Class, error) {
	if !(x > 1) {
		return 0, fmt.Errorf("adversary: classification requires x > 1, got %g", x)
	}
	points := []float64{1, x, -1, -x}
	type pv struct {
		x float64
		t float64
	}
	visits := make([]pv, 0, 4)
	for _, p := range points {
		t, ok := tr.FirstVisit(p)
		if !ok {
			return ClassNeither, nil
		}
		visits = append(visits, pv{x: p, t: t})
	}
	sort.Slice(visits, func(a, b int) bool { return visits[a].t < visits[b].t })
	order := [4]float64{visits[0].x, visits[1].x, visits[2].x, visits[3].x}
	switch order {
	case [4]float64{1, x, -1, -x}:
		return ClassPositive, nil
	case [4]float64{-1, -x, 1, x}:
		return ClassNegative, nil
	default:
		return ClassNeither, nil
	}
}

// GameResult reports the outcome of playing the Theorem 2 adversary
// against a concrete plan.
type GameResult struct {
	// Alpha is the lower bound the ladder certifies for any algorithm
	// (only binding when the plan has n < 2f+2 robots).
	Alpha float64
	// Ratio is the worst ratio the plan actually suffers over the
	// ladder's candidate targets, under worst-case faults.
	Ratio float64
	// Target is the placement achieving Ratio.
	Target float64
}

// Play runs the adversary against the plan: it evaluates the worst-case
// search ratio at every ladder target and returns the maximum. For any
// plan with n < 2f+2 robots, Theorem 2 guarantees Ratio >= Alpha.
func Play(p *compiled.Plan) (GameResult, error) {
	ladder, err := NewLadder(p.N())
	if err != nil {
		return GameResult{}, err
	}
	return PlayLadder(p, ladder), nil
}

// PlayLadder is Play with an explicit ladder, allowing weaker alphas or
// cross-checks against other n.
func PlayLadder(p *compiled.Plan, ladder Ladder) GameResult {
	res := GameResult{Alpha: ladder.Alpha, Ratio: math.Inf(-1)}
	for _, x := range ladder.Targets() {
		if ratio := p.SearchTime(x) / math.Abs(x); ratio > res.Ratio {
			res.Ratio = ratio
			res.Target = x
		}
	}
	return res
}

// VerifyTheorem2 plays the adversary against the plan and returns an
// error if the plan beats the proven lower bound — which would disprove
// the theorem (or reveal a simulator bug). The theorem is stated for
// the crash model, so Byzantine plans are rejected (their worst case
// is governed by the reduction to a crash plan at budget rank-1, which
// can be verified directly). Plans with n >= 2f+2 robots are outside
// the theorem's hypothesis and are rejected too.
func VerifyTheorem2(p *compiled.Plan) (GameResult, error) {
	m := p.Model()
	if m.Kind != fault.ModelCrash {
		return GameResult{}, fmt.Errorf("adversary: Theorem 2 is a crash-model bound, plan uses %s", m)
	}
	if p.N() >= 2*m.F+2 {
		return GameResult{}, fmt.Errorf("adversary: Theorem 2 needs n < 2f+2, got n=%d, f=%d", p.N(), m.F)
	}
	res, err := Play(p)
	if err != nil {
		return GameResult{}, err
	}
	if res.Ratio < res.Alpha-1e-9 {
		return res, fmt.Errorf("adversary: plan achieves ratio %g below the proven bound %g", res.Ratio, res.Alpha)
	}
	return res, nil
}
