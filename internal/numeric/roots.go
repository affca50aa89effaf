package numeric

import (
	"fmt"
	"math"
)

// maxIterations bounds every iterative solver in this package. Bisection
// on float64 needs at most ~1100 steps to reach machine precision from
// any finite bracket, so 2000 is a generous budget.
const maxIterations = 2000

// Bisect finds a root of f in [lo, hi] by bisection. f(lo) and f(hi)
// must have opposite (or zero) signs. The returned root satisfies
// |hi-lo| <= tol or f(root) == 0.
func Bisect(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	if lo > hi {
		lo, hi = hi, lo
	}
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if math.IsNaN(flo) || math.IsNaN(fhi) {
		return 0, fmt.Errorf("numeric: Bisect endpoints evaluate to NaN (f(%g)=%g, f(%g)=%g)", lo, flo, hi, fhi)
	}
	if (flo > 0) == (fhi > 0) {
		return 0, fmt.Errorf("numeric: Bisect endpoints do not bracket a root (f(%g)=%g, f(%g)=%g)", lo, flo, hi, fhi)
	}
	for i := 0; i < maxIterations; i++ {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi || hi-lo <= tol {
			return mid, nil
		}
		fm := f(mid)
		switch {
		case fm == 0:
			return mid, nil
		case (fm > 0) == (fhi > 0):
			hi, fhi = mid, fm
		default:
			lo, flo = mid, fm
		}
	}
	return lo + (hi-lo)/2, ErrNoConvergence
}

// BracketUp expands the interval [lo, lo+step] geometrically to the
// right until f changes sign, returning the bracketing interval. It is
// used to bracket the Theorem-2 root, whose left endpoint (alpha -> 3+)
// diverges to +infinity and whose value is eventually negative.
func BracketUp(f func(float64) float64, lo, step float64) (a, b float64, err error) {
	if step <= 0 {
		return 0, 0, fmt.Errorf("numeric: BracketUp with non-positive step %g", step)
	}
	fa := f(lo)
	a = lo
	for i := 0; i < maxIterations; i++ {
		b = a + step
		fb := f(b)
		if fb == 0 || (fa > 0) != (fb > 0) {
			return a, b, nil
		}
		a, fa = b, fb
		step *= 2
	}
	return 0, 0, fmt.Errorf("numeric: BracketUp found no sign change from %g: %w", lo, ErrNoConvergence)
}
