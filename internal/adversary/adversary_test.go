package adversary

import (
	"math"
	"testing"
	"testing/quick"

	"linesearch/internal/analysis"
	"linesearch/internal/compiled"
	"linesearch/internal/geom"
	"linesearch/internal/numeric"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
	"linesearch/internal/trajectory"
)

func mustPlan(t *testing.T, st strategy.Strategy, n, f int) *sim.Plan {
	t.Helper()
	p, err := sim.FromStrategy(st, n, f)
	if err != nil {
		t.Fatalf("FromStrategy(%s, %d, %d): %v", st.Name(), n, f, err)
	}
	return p
}

func mustKernel(t *testing.T, st strategy.Strategy, n, f int) *compiled.Plan {
	t.Helper()
	p, err := compiled.FromStrategy(st, n, f)
	if err != nil {
		t.Fatalf("FromStrategy(%s, %d, %d): %v", st.Name(), n, f, err)
	}
	return p
}

func TestNewLadderStructure(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 11, 41} {
		l, err := NewLadder(n)
		if err != nil {
			t.Fatalf("NewLadder(%d): %v", n, err)
		}
		if len(l.Points) != n {
			t.Fatalf("n=%d: %d points", n, len(l.Points))
		}
		if l.Alpha <= 3 {
			t.Errorf("n=%d: alpha = %v", n, l.Alpha)
		}
		// Equation 20 is enforced by the constructor; spot-check the
		// recurrence x_i = (alpha-1)/2 * x_{i+1} (Equation 16).
		for i := 0; i+1 < n; i++ {
			want := (l.Alpha - 1) / 2 * l.Points[i+1]
			if !numeric.AlmostEqual(l.Points[i], want, 1e-9) {
				t.Errorf("n=%d: x_%d = %v, want %v (Eq 16)", n, i, l.Points[i], want)
			}
		}
		// x_{n-1} >= (alpha-1)/2 (Equation 19; equality at the exact
		// root, where 2^(n+1)/((alpha-1)^n (alpha-3)) = 1).
		if last := l.Points[n-1]; last < (l.Alpha-1)/2-1e-9 {
			t.Errorf("n=%d: x_{n-1} = %v violates Eq 19", n, last)
		}
	}
}

func TestNewLadderWithAlphaValidation(t *testing.T) {
	if _, err := NewLadderWithAlpha(3, 3); err == nil {
		t.Error("alpha = 3 accepted")
	}
	if _, err := NewLadderWithAlpha(0, 3.5); err == nil {
		t.Error("n = 0 accepted")
	}
	// alpha far above the root violates the Theorem 2 inequality.
	if _, err := NewLadderWithAlpha(3, 8); err == nil {
		t.Error("oversized alpha accepted")
	}
	// A weaker alpha (below the root) is fine.
	l, err := NewLadderWithAlpha(3, 3.3)
	if err != nil {
		t.Fatalf("weaker alpha rejected: %v", err)
	}
	if l.Alpha != 3.3 {
		t.Errorf("Alpha = %v", l.Alpha)
	}
}

// TestLadderPropertyRandomAlpha: for random n and random valid alpha
// (at or below the Theorem 2 root), the ladder construction always
// succeeds and satisfies the Equation 16 recurrence and Equation 20
// ordering.
func TestLadderPropertyRandomAlpha(t *testing.T) {
	f := func(nRaw uint8, frac float64) bool {
		n := int(nRaw%40) + 1
		root, err := analysis.Theorem2Alpha(n)
		if err != nil {
			return false
		}
		// alpha in (3, root], parameterised by frac in (0, 1].
		fr := math.Abs(math.Mod(frac, 1))
		if fr == 0 {
			fr = 1
		}
		alpha := 3 + fr*(root-3)
		l, err := NewLadderWithAlpha(n, alpha)
		if err != nil {
			return false
		}
		for i := 0; i+1 < len(l.Points); i++ {
			if !numeric.AlmostEqual(l.Points[i], (alpha-1)/2*l.Points[i+1], 1e-6) {
				return false
			}
			if l.Points[i] <= l.Points[i+1] {
				return false
			}
		}
		return l.Points[len(l.Points)-1] > 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLadderTargets(t *testing.T) {
	l, err := NewLadder(4)
	if err != nil {
		t.Fatal(err)
	}
	targets := l.Targets()
	if len(targets) != 10 {
		t.Fatalf("got %d targets, want 10", len(targets))
	}
	for _, want := range []float64{1, -1} {
		found := false
		for _, x := range targets {
			if x == want {
				found = true
			}
		}
		if !found {
			t.Errorf("target %v missing", want)
		}
	}
	for _, x := range l.Points {
		var pos, neg bool
		for _, tx := range targets {
			if tx == x {
				pos = true
			}
			if tx == -x {
				neg = true
			}
		}
		if !pos || !neg {
			t.Errorf("ladder point %v missing a signed target", x)
		}
	}
}

func TestClassifyTrajectory(t *testing.T) {
	// The doubling zig-zag visits 1, then x in (1, 2]... take x = 2:
	// first visits: 1 at t=3 (leg arrival is earlier: t? start-up leg
	// reaches 1 at time 3 via the origin wait), then -2 at 6, so the
	// order for x = 2 is 1, -1, -2, ... => neither? Compute: visits of
	// 1: t=3; of -1: t=4 (heading left); of -2: t=6; of 2: segment
	// (-2,6)->(4,12) at t=10. Order: 1, -1, -2, 2 => neither positive
	// nor negative.
	dbl := mustPlan(t, strategy.Doubling{}, 1, 0)
	tr := dbl.Trajectories()[0]
	got, err := ClassifyTrajectory(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != ClassNeither {
		t.Errorf("doubling for x=2: %v, want neither", got)
	}

	// For x = 1.5 the doubling robot visits 1 (t=3), 1.5? No - it turns
	// at 1. Order: 1(3), -1(4), -1.5(4.5), 1.5(9.5): again neither.
	got, err = ClassifyTrajectory(tr, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if got != ClassNeither {
		t.Errorf("doubling for x=1.5: %v, want neither", got)
	}
}

func TestClassifyPositiveTrajectory(t *testing.T) {
	// Hand-built positive trajectory for x = 2: 0 -> 2 -> -2 -> (halt).
	legs := []geom.Segment{
		{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: 2, T: 2}},
		{From: geom.Point{X: 2, T: 2}, To: geom.Point{X: -2, T: 6}},
	}
	tr := trajectory.Must(legs, nil)
	got, err := ClassifyTrajectory(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != ClassPositive {
		t.Errorf("got %v, want positive", got)
	}
}

func TestClassifyNegativeTrajectory(t *testing.T) {
	legs := []geom.Segment{
		{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: -2, T: 2}},
		{From: geom.Point{X: -2, T: 2}, To: geom.Point{X: 2, T: 6}},
	}
	tr := trajectory.Must(legs, nil)
	got, err := ClassifyTrajectory(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != ClassNegative {
		t.Errorf("got %v, want negative", got)
	}
}

func TestClassifyNeverVisits(t *testing.T) {
	// A right ray never reaches -1.
	tr := trajectory.Must(nil, trajectory.MustRay(geom.Point{X: 0, T: 0}, trajectory.Right))
	got, err := ClassifyTrajectory(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != ClassNeither {
		t.Errorf("got %v, want neither", got)
	}
}

func TestClassifyValidation(t *testing.T) {
	tr := trajectory.Must(nil, trajectory.MustRay(geom.Point{X: 0, T: 0}, trajectory.Right))
	if _, err := ClassifyTrajectory(tr, 1); err == nil {
		t.Error("x = 1 accepted")
	}
}

func TestClassString(t *testing.T) {
	if ClassPositive.String() != "positive" || ClassNegative.String() != "negative" || ClassNeither.String() != "neither" {
		t.Error("bad class labels")
	}
	if Class(9).String() != "Class(9)" {
		t.Errorf("unknown class: %v", Class(9))
	}
}

// TestTheorem2HoldsForProportional plays the adversary against the
// paper's own algorithm: A(n, f) must suffer at least alpha on the
// ladder. This is the empirical confirmation of Theorem 2 (E4).
func TestTheorem2HoldsForProportional(t *testing.T) {
	for _, pair := range [][2]int{{2, 1}, {3, 1}, {3, 2}, {4, 2}, {5, 2}, {5, 3}, {11, 5}} {
		n, f := pair[0], pair[1]
		res, err := VerifyTheorem2(mustKernel(t, strategy.Proportional{}, n, f))
		if err != nil {
			t.Errorf("(%d,%d): %v", n, f, err)
			continue
		}
		if res.Ratio < res.Alpha-1e-9 {
			t.Errorf("(%d,%d): ratio %v below alpha %v", n, f, res.Ratio, res.Alpha)
		}
		// The plan's suffering on the ladder can also never exceed its
		// competitive ratio.
		cr, err := analysis.UpperBoundCR(n, f)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ratio > cr+1e-9 {
			t.Errorf("(%d,%d): ladder ratio %v exceeds the algorithm's CR %v", n, f, res.Ratio, cr)
		}
	}
}

// TestTheorem2HoldsForDoubling: the baseline must also respect the
// lower bound (it suffers ratio up to 9 >> alpha).
func TestTheorem2HoldsForDoubling(t *testing.T) {
	res, err := VerifyTheorem2(mustKernel(t, strategy.Doubling{}, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio < res.Alpha {
		t.Errorf("doubling ratio %v below alpha %v", res.Ratio, res.Alpha)
	}
}

func TestVerifyTheorem2RejectsTrivialRegime(t *testing.T) {
	if _, err := VerifyTheorem2(mustKernel(t, strategy.TwoGroup{}, 6, 2)); err == nil {
		t.Error("trivial-regime plan accepted (outside theorem hypothesis)")
	}
}

func TestPlayReportsWitness(t *testing.T) {
	res, err := Play(mustKernel(t, strategy.Proportional{}, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := mustPlan(t, strategy.Proportional{}, 3, 1).Ratio(res.Target)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(ratio, res.Ratio, 1e-12) {
		t.Errorf("witness ratio %v != reported %v", ratio, res.Ratio)
	}
	if math.Abs(res.Target) < 1 {
		t.Errorf("witness %v below distance 1", res.Target)
	}
}
