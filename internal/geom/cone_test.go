package geom

import (
	"math"
	"testing"
	"testing/quick"

	"linesearch/internal/numeric"
)

func TestNewConeValidation(t *testing.T) {
	for _, beta := range []float64{1, 0.5, 0, -2, math.Inf(1), math.NaN()} {
		if _, err := NewCone(beta); err == nil {
			t.Errorf("NewCone(%v) succeeded, want error", beta)
		}
	}
	c, err := NewCone(3)
	if err != nil {
		t.Fatalf("NewCone(3): %v", err)
	}
	if c.Beta() != 3 {
		t.Errorf("Beta = %v, want 3", c.Beta())
	}
}

func TestMustConePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCone(1) did not panic")
		}
	}()
	MustCone(1)
}

func TestExpansionFactor(t *testing.T) {
	tests := []struct {
		beta, want float64
	}{
		{3, 2},              // the classic doubling strategy lives in C_3
		{5.0 / 3, 4},        // A(3,1)
		{2, 3},              // A(4,2)
		{7.0 / 5, 6},        // A(5,2)
		{11.0 / 5, 8.0 / 3}, // A(5,3)
		{13.0 / 11, 12},     // A(11,5)
		{43.0 / 41, 42},     // A(41,20)
	}
	for _, tt := range tests {
		c := MustCone(tt.beta)
		if got := c.ExpansionFactor(); !numeric.AlmostEqual(got, tt.want, 1e-12) {
			t.Errorf("ExpansionFactor(beta=%v) = %v, want %v", tt.beta, got, tt.want)
		}
	}
}

func TestBoundary(t *testing.T) {
	c := MustCone(2.5)
	if got := c.BoundaryTime(4); got != 10 {
		t.Errorf("BoundaryTime(4) = %v, want 10", got)
	}
	if got := c.BoundaryTime(-4); got != 10 {
		t.Errorf("BoundaryTime(-4) = %v, want 10", got)
	}
	p := c.BoundaryPoint(-2)
	if p.X != -2 || p.T != 5 {
		t.Errorf("BoundaryPoint(-2) = %v, want (-2, 5)", p)
	}
}

func TestContainsAndOnBoundary(t *testing.T) {
	c := MustCone(2)
	tests := []struct {
		p        Point
		contains bool
		onEdge   bool
	}{
		{Point{1, 2}, true, true},
		{Point{-1, 2}, true, true},
		{Point{1, 3}, true, false},
		{Point{1, 1.5}, false, false},
		{Point{0, 0}, true, true},
		{Point{0, 5}, true, false},
	}
	for _, tt := range tests {
		if got := c.Contains(tt.p, 1e-12); got != tt.contains {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.contains)
		}
		if got := c.OnBoundary(tt.p, 1e-12); got != tt.onEdge {
			t.Errorf("OnBoundary(%v) = %v, want %v", tt.p, got, tt.onEdge)
		}
	}
}

func TestNextTurnMatchesLemma1(t *testing.T) {
	// Lemma 1: x_i = x_0 * kappa^i * (-1)^i for a robot starting at
	// boundary point (x_0, beta*x_0).
	c := MustCone(5.0 / 3) // kappa = 4
	p := c.BoundaryPoint(1)
	want := []float64{1, -4, 16, -64, 256}
	for i, w := range want {
		if !numeric.AlmostEqual(p.X, w, 1e-9) {
			t.Fatalf("turn %d at x = %v, want %v", i, p.X, w)
		}
		if !c.OnBoundary(p, 1e-9) {
			t.Fatalf("turn %d point %v not on boundary", i, p)
		}
		p = c.NextTurn(p)
	}
}

func TestNextTurnUnitSpeedFeasible(t *testing.T) {
	// The segment between consecutive turning points must be exactly unit
	// speed: |x_{i+1} - x_i| == t_{i+1} - t_i.
	f := func(betaRaw, x0Raw float64) bool {
		if math.IsNaN(betaRaw) || math.IsNaN(x0Raw) {
			return true
		}
		beta := 1.01 + math.Abs(math.Mod(betaRaw, 10))
		x0 := math.Mod(x0Raw, 100)
		if x0 == 0 {
			return true
		}
		c := MustCone(beta)
		p := c.BoundaryPoint(x0)
		q := c.NextTurn(p)
		return numeric.AlmostEqual(math.Abs(q.X-p.X), q.T-p.T, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrevTurnInvertsNextTurn(t *testing.T) {
	f := func(betaRaw, x0Raw float64) bool {
		if math.IsNaN(betaRaw) || math.IsNaN(x0Raw) {
			return true
		}
		beta := 1.01 + math.Abs(math.Mod(betaRaw, 10))
		x0 := math.Mod(x0Raw, 100)
		if x0 == 0 {
			return true
		}
		c := MustCone(beta)
		p := c.BoundaryPoint(x0)
		back := c.PrevTurn(c.NextTurn(p))
		return numeric.AlmostEqual(back.X, p.X, 1e-9) && numeric.AlmostEqual(back.T, p.T, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// NextTurn computes the next boundary point reached by a robot that
// leaves the boundary point p (p must satisfy p.T = beta*|p.X|, p.X != 0)
// and crosses the cone at unit speed toward the opposite wall.
//
// By Lemma 1 the new turning position is -kappa * p.X with kappa the
// expansion factor, reached at time beta * kappa * |p.X|.
func (c Cone) NextTurn(p Point) Point {
	k := c.ExpansionFactor()
	nx := -k * p.X
	return Point{X: nx, T: c.beta * math.Abs(nx)}
}
