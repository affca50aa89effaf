package sim_test

import (
	"math"
	"testing"

	"linesearch/internal/analysis"
	"linesearch/internal/compiled"
	"linesearch/internal/numeric"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
)

// The competitive ratio is measured by the compiled kernel alone;
// internal/compiled's TestCRMatchesSim pins it bit for bit to the
// search over this package's trajectories and SearchTime. These tests
// hold the measurement of the exact engine's plans to the paper.

func mustPlan(t *testing.T, st strategy.Strategy, n, f int) *sim.Plan {
	t.Helper()
	p, err := sim.FromStrategy(st, n, f)
	if err != nil {
		t.Fatalf("FromStrategy(%s, %d, %d): %v", st.Name(), n, f, err)
	}
	return p
}

// empiricalCR measures p's competitive ratio over targets with
// XMin <= |x| <= XMax through its compiled kernel.
func empiricalCR(p *sim.Plan, opts compiled.CROptions) (compiled.CRResult, error) {
	cp, err := compiled.Compile(p)
	if err != nil {
		return compiled.CRResult{}, err
	}
	return cp.CR(opts)
}

// TestEmpiricalCRMatchesTheorem1 is experiment E6: for every
// proportional pair of Table 1, the measured competitive ratio of the
// realised algorithm A(n, f) must equal the Theorem 1 closed form.
func TestEmpiricalCRMatchesTheorem1(t *testing.T) {
	pairs := [][2]int{{2, 1}, {3, 1}, {3, 2}, {4, 2}, {4, 3}, {5, 2}, {5, 3}, {5, 4}, {11, 5}}
	for _, pair := range pairs {
		n, f := pair[0], pair[1]
		p := mustPlan(t, strategy.Proportional{}, n, f)
		want, err := analysis.UpperBoundCR(n, f)
		if err != nil {
			t.Fatal(err)
		}
		res, err := empiricalCR(p, compiled.CROptions{XMax: 2000})
		if err != nil {
			t.Fatalf("(%d,%d): EmpiricalCR: %v", n, f, err)
		}
		if !numeric.AlmostEqual(res.Sup, want, 1e-6) {
			t.Errorf("(%d,%d): empirical CR %v, analytic %v (witness x=%v)", n, f, res.Sup, want, res.ArgX)
		}
	}
}

// TestEmpiricalCRNeverExceedsTheorem1 sweeps more targets than the
// matching test and asserts the upper-bound direction with a tight
// tolerance: no target anywhere may beat the proven bound.
func TestEmpiricalCRNeverExceedsTheorem1(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 41, 20)
	want, err := analysis.UpperBoundCR(41, 20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := empiricalCR(p, compiled.CROptions{XMax: 1e5, GridPoints: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sup > want+1e-6 {
		t.Errorf("empirical CR %v exceeds Theorem 1 bound %v at x=%v", res.Sup, want, res.ArgX)
	}
	if res.Sup < want-1e-4 {
		t.Errorf("empirical CR %v falls short of the tight bound %v", res.Sup, want)
	}
}

func TestEmpiricalCRTwoGroupIsOne(t *testing.T) {
	p := mustPlan(t, strategy.TwoGroup{}, 6, 2)
	res, err := empiricalCR(p, compiled.CROptions{XMax: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(res.Sup, 1, 1e-9) {
		t.Errorf("two-group CR = %v, want 1", res.Sup)
	}
}

func TestEmpiricalCRDoublingIsNine(t *testing.T) {
	for _, pair := range [][2]int{{1, 0}, {3, 1}, {5, 3}} {
		p := mustPlan(t, strategy.Doubling{}, pair[0], pair[1])
		res, err := empiricalCR(p, compiled.CROptions{XMax: 1e4})
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.AlmostEqual(res.Sup, 9, 1e-6) {
			t.Errorf("(%d,%d): doubling CR = %v, want 9", pair[0], pair[1], res.Sup)
		}
	}
}

// TestProportionalBeatsDoubling: the headline comparison — A(n, f) is
// strictly better than the group-doubling baseline whenever n > f+1.
func TestProportionalBeatsDoubling(t *testing.T) {
	for _, pair := range [][2]int{{3, 1}, {4, 2}, {5, 2}, {5, 3}, {11, 5}} {
		n, f := pair[0], pair[1]
		prop := mustPlan(t, strategy.Proportional{}, n, f)
		dbl := mustPlan(t, strategy.Doubling{}, n, f)
		propRes, err := empiricalCR(prop, compiled.CROptions{})
		if err != nil {
			t.Fatal(err)
		}
		dblRes, err := empiricalCR(dbl, compiled.CROptions{})
		if err != nil {
			t.Fatal(err)
		}
		if propRes.Sup >= dblRes.Sup-0.5 {
			t.Errorf("(%d,%d): proportional %v not clearly below doubling %v", n, f, propRes.Sup, dblRes.Sup)
		}
	}
}

// TestSuboptimalBetaIsWorse is the E7 ablation at test scale: moving
// beta off beta* strictly increases the measured CR.
func TestSuboptimalBetaIsWorse(t *testing.T) {
	const n, f = 3, 1
	betaStar, err := analysis.OptimalBeta(n, f)
	if err != nil {
		t.Fatal(err)
	}
	best, err := empiricalCR(mustPlan(t, strategy.Proportional{}, n, f), compiled.CROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(betaStar, 5.0/3, 1e-12) {
		t.Fatalf("betaStar = %v, want 5/3", betaStar)
	}
	for _, beta := range []float64{1.2, 1.4, 2, 3, 10} {
		p := mustPlan(t, strategy.Cone{Beta: beta}, n, f)
		res, err := empiricalCR(p, compiled.CROptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Sup <= best.Sup+1e-6 {
			t.Errorf("beta=%v: CR %v does not exceed optimal %v", beta, res.Sup, best.Sup)
		}
		// And the measurement still matches Lemma 5 at that beta.
		want, err := analysis.ConeCR(beta, n, f)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.AlmostEqual(res.Sup, want, 1e-6) {
			t.Errorf("beta=%v: empirical %v, Lemma 5 %v", beta, res.Sup, want)
		}
	}
}

func TestEmpiricalCROptionsValidation(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	if _, err := empiricalCR(p, compiled.CROptions{XMax: 0.5}); err == nil {
		t.Error("XMax <= 1 accepted")
	}
	if _, err := empiricalCR(p, compiled.CROptions{GridPoints: 1}); err == nil {
		t.Error("GridPoints < 2 accepted")
	}
	if _, err := empiricalCR(p, compiled.CROptions{Eps: 2}); err == nil {
		t.Error("Eps >= 1 accepted")
	}
}

func TestEmpiricalCRReportsWitness(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	res, err := empiricalCR(p, compiled.CROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ArgX) < 1 {
		t.Errorf("witness x = %v below minimal target distance", res.ArgX)
	}
	ratio, err := p.Ratio(res.ArgX)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(ratio, res.Sup, 1e-12) {
		t.Errorf("witness ratio %v != reported sup %v", ratio, res.Sup)
	}
	if res.Candidates < 1000 {
		t.Errorf("only %d candidates evaluated", res.Candidates)
	}
}

// TestRatioDecreasesBetweenTurningPoints checks Lemma 3 on the realised
// A(3, 1): within an interval free of turning points, K is decreasing.
func TestRatioDecreasesBetweenTurningPoints(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	// Merged turning points for A(3,1) are at r^k, r = 4^(2/3) ~ 2.52.
	r := math.Pow(4, 2.0/3)
	lo, hi := 1*(1+1e-6), r*(1-1e-6) // inside (tau_0, tau_1)
	prev := math.Inf(1)
	for _, x := range numeric.Linspace(lo, hi, 64) {
		k, err := p.Ratio(x)
		if err != nil {
			t.Fatal(err)
		}
		if k > prev+1e-9 {
			t.Errorf("K(%v) = %v increased (prev %v)", x, k, prev)
		}
		prev = k
	}
}

func TestWithTurnCostEmpiricalCRExceedsBase(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	base, err := empiricalCR(p, compiled.CROptions{XMax: 200})
	if err != nil {
		t.Fatal(err)
	}
	derived, err := p.WithTurnCost(2, 4e4)
	if err != nil {
		t.Fatal(err)
	}
	costly, err := empiricalCR(derived, compiled.CROptions{XMax: 200})
	if err != nil {
		t.Fatal(err)
	}
	if costly.Sup <= base.Sup {
		t.Errorf("turn-cost CR %v not above base %v", costly.Sup, base.Sup)
	}
}
