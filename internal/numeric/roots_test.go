package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBisectFindsSimpleRoot(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if !AlmostEqual(root, math.Sqrt2, 1e-10) {
		t.Errorf("root = %.15g, want sqrt(2)", root)
	}
}

func TestBisectExactEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x - 3 }
	if root, err := Bisect(f, 3, 10, 1e-12); err != nil || root != 3 {
		t.Errorf("root at lo: got %v, %v", root, err)
	}
	if root, err := Bisect(f, -10, 3, 1e-12); err != nil || root != 3 {
		t.Errorf("root at hi: got %v, %v", root, err)
	}
}

func TestBisectSwappedBounds(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x - 1 }, 5, -5, 1e-12)
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if !AlmostEqual(root, 1, 1e-10) {
		t.Errorf("root = %v, want 1", root)
	}
}

func TestBisectRejectsNonBracket(t *testing.T) {
	if _, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-12); err == nil {
		t.Error("expected error for non-bracketing interval")
	}
}

func TestBisectRejectsNaNEndpoint(t *testing.T) {
	f := func(x float64) float64 {
		if x < 0 {
			return math.NaN()
		}
		return x - 1
	}
	if _, err := Bisect(f, -1, 2, 1e-12); err == nil {
		t.Error("expected error for NaN endpoint")
	}
}

func TestBisectDecreasingFunction(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return 5 - x }, 0, 10, 1e-13)
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if !AlmostEqual(root, 5, 1e-10) {
		t.Errorf("root = %v, want 5", root)
	}
}

func TestBisectPropertyRandomLinearRoots(t *testing.T) {
	f := func(rRaw float64) bool {
		r := math.Mod(math.Abs(rRaw), 100)
		if math.IsNaN(r) {
			return true
		}
		g := func(x float64) float64 { return x - r }
		root, err := Bisect(g, -1, 101, 1e-12)
		return err == nil && AlmostEqual(root, r, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBracketUpFindsSignChange(t *testing.T) {
	// Mimics the Theorem-2 function shape: decreasing through a root.
	f := func(a float64) float64 { return 100 - a*a }
	lo, hi, err := BracketUp(f, 0, 1)
	if err != nil {
		t.Fatalf("BracketUp: %v", err)
	}
	if !(f(lo) >= 0 && f(hi) <= 0) {
		t.Errorf("bracket [%v, %v] does not straddle root", lo, hi)
	}
	if lo > 10 || hi < 10 {
		t.Errorf("bracket [%v, %v] excludes the root 10", lo, hi)
	}
}

func TestBracketUpRejectsBadStep(t *testing.T) {
	if _, _, err := BracketUp(func(x float64) float64 { return x }, 0, 0); err == nil {
		t.Error("expected error for zero step")
	}
}

func TestBracketUpNoSignChange(t *testing.T) {
	if _, _, err := BracketUp(func(x float64) float64 { return 1 }, 0, 1); err == nil {
		t.Error("expected error when no sign change exists")
	}
}
