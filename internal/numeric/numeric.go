// Package numeric provides the small numerical substrate used by every
// analytic module in this repository: floating-point comparison,
// compensated summation, grids, root finding, guarded power evaluation
// for the closed forms of the paper, and the one worker pool.
//
// All routines operate on float64 and are deterministic; none of them
// allocate except where documented.
package numeric

import (
	"errors"
	"math"
)

// ErrNoConvergence is returned by iterative routines that exhaust their
// iteration budget before meeting their tolerance.
var ErrNoConvergence = errors.New("numeric: iteration did not converge")

// AlmostEqual reports whether a and b are equal within tol, using a
// combined absolute/relative criterion: |a-b| <= tol * max(1, |a|, |b|).
func AlmostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// Pow evaluates base**exp with the conventions needed by the paper's
// closed forms:
//
//   - 0**0 = 1 (the limit used for the a -> 2 endpoint of Figure 5 right),
//   - 0**positive = 0,
//   - negative bases are rejected (the formulas never produce them for
//     valid parameters), returning NaN so the error surfaces in tests.
func Pow(base, exp float64) float64 {
	if base < 0 {
		return math.NaN()
	}
	if base == 0 {
		if exp == 0 {
			return 1
		}
		if exp > 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Pow(base, exp)
}

// KahanSum accumulates a running sum with Neumaier's improved
// compensation. The zero value is ready to use.
type KahanSum struct {
	sum float64
	c   float64
}

// Add folds v into the sum.
func (k *KahanSum) Add(v float64) {
	t := k.sum + v
	if math.Abs(k.sum) >= math.Abs(v) {
		k.c += (k.sum - t) + v
	} else {
		k.c += (v - t) + k.sum
	}
	k.sum = t
}

// Value returns the compensated total.
func (k *KahanSum) Value() float64 { return k.sum + k.c }

// Linspace returns num points evenly spaced over [lo, hi] inclusive.
// num must be >= 2.
func Linspace(lo, hi float64, num int) []float64 {
	if num < 2 {
		panic("numeric: Linspace needs at least two points")
	}
	out := make([]float64, num)
	step := (hi - lo) / float64(num-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[num-1] = hi // exact endpoint regardless of rounding
	return out
}

// Logspace returns num points geometrically spaced over [lo, hi]
// inclusive. lo and hi must be positive and num >= 2.
func Logspace(lo, hi float64, num int) []float64 {
	if lo <= 0 || hi <= 0 {
		panic("numeric: Logspace needs positive endpoints")
	}
	pts := Linspace(math.Log(lo), math.Log(hi), num)
	for i, p := range pts {
		pts[i] = math.Exp(p)
	}
	pts[num-1] = hi
	return pts
}
