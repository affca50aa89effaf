// Package analysis implements the paper's closed forms: the
// proportionality ratio of Lemma 2, the detection time of Lemma 4, the
// competitive ratio of Lemma 5 / Theorem 1, the optimal cone slope
// beta*, the Theorem 2 lower bound and the asymptotic corollaries.
//
// Everything here is pure arithmetic over (n, f, beta); the geometric
// realisation of these formulas lives in internal/schedule and is
// cross-checked against this package by the simulator tests.
package analysis

import (
	"fmt"
	"math"

	"linesearch/internal/numeric"
)

// Regime classifies a robot/fault pair (n, f) by which algorithm and
// bounds apply.
type Regime int

// Regimes of the search problem.
const (
	// RegimeTrivial is n >= 2f+2: two groups of f+1 sweep opposite
	// directions, competitive ratio 1.
	RegimeTrivial Regime = iota + 1
	// RegimeProportional is f < n < 2f+2: the paper's proportional
	// schedule algorithms A(n, f).
	RegimeProportional
	// RegimeHopeless is n <= f: every robot may be faulty, no algorithm
	// can guarantee detection.
	RegimeHopeless
)

// String returns a short regime label.
func (r Regime) String() string {
	switch r {
	case RegimeTrivial:
		return "trivial (n >= 2f+2)"
	case RegimeProportional:
		return "proportional (f < n < 2f+2)"
	case RegimeHopeless:
		return "hopeless (n <= f)"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// Classify returns the regime of the pair (n, f). It returns an error
// for nonsensical parameters (n < 1 or f < 0).
func Classify(n, f int) (Regime, error) {
	if n < 1 {
		return 0, fmt.Errorf("analysis: need at least one robot, got n=%d", n)
	}
	if f < 0 {
		return 0, fmt.Errorf("analysis: negative fault count f=%d", f)
	}
	switch {
	case n <= f:
		return RegimeHopeless, nil
	case n >= 2*f+2:
		return RegimeTrivial, nil
	default:
		return RegimeProportional, nil
	}
}

// ValidateProportional returns an error unless (n, f) falls in the
// proportional regime f < n < 2f+2 where A(n, f) is defined.
func ValidateProportional(n, f int) error {
	r, err := Classify(n, f)
	if err != nil {
		return err
	}
	if r != RegimeProportional {
		return fmt.Errorf("analysis: (n=%d, f=%d) is in the %v regime, not proportional", n, f, r)
	}
	return nil
}

// OptimalBeta returns the cone slope beta* = (4f+4)/n - 1 that minimises
// the competitive ratio of the proportional schedule S_beta(n) with f
// faults (the optimisation following Lemma 5).
func OptimalBeta(n, f int) (float64, error) {
	if err := ValidateProportional(n, f); err != nil {
		return 0, err
	}
	return float64(4*f+4)/float64(n) - 1, nil
}

// ExpansionFactor returns kappa = (beta+1)/(beta-1) for the optimal
// schedule A(n, f): the growth ratio of a single robot's consecutive
// turning points (Table 1, column 5). For n = 2f+1 this is always n+1;
// for n = f+1 it is 2 (the doubling strategy).
func ExpansionFactor(n, f int) (float64, error) {
	beta, err := OptimalBeta(n, f)
	if err != nil {
		return 0, err
	}
	return (beta + 1) / (beta - 1), nil
}

// ProportionalityRatio returns r = ((beta+1)/(beta-1))^(2/n), the common
// ratio of the merged turning-point sequence of the proportional
// schedule S_beta(n) (Lemma 2, Equation 2).
func ProportionalityRatio(beta float64, n int) (float64, error) {
	if !(beta > 1) {
		return 0, fmt.Errorf("analysis: proportionality ratio requires beta > 1, got %g", beta)
	}
	if n < 1 {
		return 0, fmt.Errorf("analysis: proportionality ratio requires n >= 1, got %d", n)
	}
	kappa := (beta + 1) / (beta - 1)
	return math.Pow(kappa, 2/float64(n)), nil
}

// ConeCR returns the competitive ratio of the proportional schedule
// S_beta(n) with f faulty robots (Lemma 5, Equation 14):
//
//	CR = (beta+1)^((2f+2)/n) * (beta-1)^(1-(2f+2)/n) + 1.
//
// beta need not be optimal; this is the objective minimised by beta*.
func ConeCR(beta float64, n, f int) (float64, error) {
	if err := ValidateProportional(n, f); err != nil {
		return 0, err
	}
	if !(beta > 1) {
		return 0, fmt.Errorf("analysis: cone requires beta > 1, got %g", beta)
	}
	e := float64(2*f+2) / float64(n)
	return numeric.Pow(beta+1, e)*numeric.Pow(beta-1, 1-e) + 1, nil
}

// KthVisitCR generalises Lemma 5 from the (f+1)-st to the k-th distinct
// visitor: the supremum over targets of (time of the k-th distinct
// robot's first visit) / |x| for the proportional schedule S_beta(n) is
//
//	(beta+1)^(2k/n) * (beta-1)^(1-2k/n) + 1,
//
// for any k >= 1 (k > n wraps around the merged turning-point sequence;
// the same Lemma 4 telescoping applies verbatim). k = f+1 recovers the
// paper's competitive ratio; k = 1 is the fault-free detection ratio;
// k = n is the group-search "last arrival" objective of the paper's
// reference [14] restricted to this schedule family.
func KthVisitCR(beta float64, n, k int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("analysis: KthVisitCR requires n >= 1, got %d", n)
	}
	if k < 1 {
		return 0, fmt.Errorf("analysis: KthVisitCR requires k >= 1, got %d", k)
	}
	if !(beta > 1) {
		return 0, fmt.Errorf("analysis: KthVisitCR requires beta > 1, got %g", beta)
	}
	e := 2 * float64(k) / float64(n)
	return numeric.Pow(beta+1, e)*numeric.Pow(beta-1, 1-e) + 1, nil
}

// UpperBoundCR returns the competitive ratio of the paper's algorithm
// A(n, f) (Theorem 1, Equation 15):
//
//	((4f+4)/n)^((2f+2)/n) * ((4f+4)/n - 2)^(1-(2f+2)/n) + 1
//
// for the proportional regime; 1 for the trivial regime; +Inf when
// n <= f (no algorithm can guarantee detection).
func UpperBoundCR(n, f int) (float64, error) {
	regime, err := Classify(n, f)
	if err != nil {
		return 0, err
	}
	switch regime {
	case RegimeTrivial:
		return 1, nil
	case RegimeHopeless:
		return math.Inf(1), nil
	}
	beta, err := OptimalBeta(n, f)
	if err != nil {
		return 0, err
	}
	return ConeCR(beta, n, f)
}

// Theorem2Alpha solves (alpha-1)^n (alpha-3) = 2^(n+1) for alpha > 3:
// the largest alpha for which Theorem 2 certifies a lower bound with n
// robots. The left side is strictly increasing on (3, inf), so the root
// is unique; it is found to machine precision in log space.
func Theorem2Alpha(n int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("analysis: Theorem 2 requires n >= 1, got %d", n)
	}
	nf := float64(n)
	g := func(alpha float64) float64 {
		return nf*math.Log(alpha-1) + math.Log(alpha-3) - (nf+1)*math.Ln2
	}
	lo := math.Nextafter(3, 4) // g(3+) = -inf
	_, hi, err := numeric.BracketUp(g, lo, 0.5)
	if err != nil {
		return 0, fmt.Errorf("analysis: bracketing Theorem 2 root for n=%d: %w", n, err)
	}
	root, err := numeric.Bisect(g, lo, hi, 1e-13)
	if err != nil {
		return 0, fmt.Errorf("analysis: solving Theorem 2 root for n=%d: %w", n, err)
	}
	return root, nil
}

// LowerBoundCR returns the best lower bound the paper proves for the
// pair (n, f):
//
//   - 1 for the trivial regime (matching the trivial algorithm),
//   - 9 when n = f+1 (the single-robot argument: the one reliable robot
//     alone must solve classic linear search),
//   - the Theorem 2 root otherwise,
//   - +Inf when n <= f.
func LowerBoundCR(n, f int) (float64, error) {
	regime, err := Classify(n, f)
	if err != nil {
		return 0, err
	}
	switch regime {
	case RegimeTrivial:
		return 1, nil
	case RegimeHopeless:
		return math.Inf(1), nil
	}
	if n == f+1 {
		return 9, nil
	}
	return Theorem2Alpha(n)
}
