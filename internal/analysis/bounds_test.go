package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"linesearch/internal/numeric"
)

func TestClassify(t *testing.T) {
	tests := []struct {
		n, f int
		want Regime
	}{
		{1, 0, RegimeProportional}, // single reliable robot: classic search
		{2, 0, RegimeTrivial},
		{2, 1, RegimeProportional},
		{3, 1, RegimeProportional},
		{4, 1, RegimeTrivial},
		{4, 2, RegimeProportional},
		{5, 2, RegimeProportional},
		{6, 2, RegimeTrivial},
		{3, 3, RegimeHopeless},
		{2, 5, RegimeHopeless},
		{41, 20, RegimeProportional},
		{42, 20, RegimeTrivial},
	}
	for _, tt := range tests {
		got, err := Classify(tt.n, tt.f)
		if err != nil {
			t.Fatalf("Classify(%d, %d): %v", tt.n, tt.f, err)
		}
		if got != tt.want {
			t.Errorf("Classify(%d, %d) = %v, want %v", tt.n, tt.f, got, tt.want)
		}
	}
}

func TestClassifyRejectsBadInput(t *testing.T) {
	if _, err := Classify(0, 0); err == nil {
		t.Error("Classify(0, 0) succeeded")
	}
	if _, err := Classify(3, -1); err == nil {
		t.Error("Classify(3, -1) succeeded")
	}
}

func TestRegimeString(t *testing.T) {
	if RegimeTrivial.String() == "" || RegimeProportional.String() == "" || RegimeHopeless.String() == "" {
		t.Error("empty regime string")
	}
	if Regime(99).String() != "Regime(99)" {
		t.Errorf("unknown regime: %v", Regime(99))
	}
}

func TestOptimalBeta(t *testing.T) {
	tests := []struct {
		n, f int
		want float64
	}{
		{1, 0, 3}, // single robot: the doubling cone C_3
		{2, 1, 3}, // n = f+1
		{3, 1, 5.0 / 3},
		{4, 2, 2},
		{5, 2, 7.0 / 5},
		{5, 3, 11.0 / 5},
		{11, 5, 13.0 / 11},
		{41, 20, 43.0 / 41},
	}
	for _, tt := range tests {
		got, err := OptimalBeta(tt.n, tt.f)
		if err != nil {
			t.Fatalf("OptimalBeta(%d, %d): %v", tt.n, tt.f, err)
		}
		if !numeric.AlmostEqual(got, tt.want, 1e-12) {
			t.Errorf("OptimalBeta(%d, %d) = %v, want %v", tt.n, tt.f, got, tt.want)
		}
	}
}

func TestOptimalBetaRejectsOtherRegimes(t *testing.T) {
	for _, p := range [][2]int{{4, 1}, {2, 0}, {3, 3}} {
		if _, err := OptimalBeta(p[0], p[1]); err == nil {
			t.Errorf("OptimalBeta(%d, %d) succeeded outside the proportional regime", p[0], p[1])
		}
	}
}

func TestOptimalBetaAlwaysExceedsOne(t *testing.T) {
	f := func(nRaw, fRaw uint16) bool {
		n := int(nRaw%200) + 1
		ff := int(fRaw % 200)
		if err := ValidateProportional(n, ff); err != nil {
			return true
		}
		beta, err := OptimalBeta(n, ff)
		return err == nil && beta > 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExpansionFactorTable1 checks Table 1's fifth column.
func TestExpansionFactorTable1(t *testing.T) {
	tests := []struct {
		n, f int
		want float64
	}{
		{2, 1, 2}, {3, 1, 4}, {3, 2, 2}, {4, 2, 3}, {4, 3, 2},
		{5, 2, 6}, {5, 3, 8.0 / 3}, {5, 4, 2}, {11, 5, 12}, {41, 20, 42},
	}
	for _, tt := range tests {
		got, err := ExpansionFactor(tt.n, tt.f)
		if err != nil {
			t.Fatalf("ExpansionFactor(%d, %d): %v", tt.n, tt.f, err)
		}
		if !numeric.AlmostEqual(got, tt.want, 1e-9) {
			t.Errorf("ExpansionFactor(%d, %d) = %v, want %v", tt.n, tt.f, got, tt.want)
		}
	}
}

// TestExpansionFactorHalfGroup verifies the paper's observation that for
// n = 2f+1 the expansion factor is always n+1, and for n = f+1 it is 2.
func TestExpansionFactorHalfGroup(t *testing.T) {
	for f := 1; f <= 100; f++ {
		n := 2*f + 1
		got, err := ExpansionFactor(n, f)
		if err != nil {
			t.Fatalf("ExpansionFactor(%d, %d): %v", n, f, err)
		}
		if !numeric.AlmostEqual(got, float64(n+1), 1e-9) {
			t.Errorf("ExpansionFactor(%d, %d) = %v, want %d", n, f, got, n+1)
		}

		got, err = ExpansionFactor(f+1, f)
		if err != nil {
			t.Fatalf("ExpansionFactor(%d, %d): %v", f+1, f, err)
		}
		if !numeric.AlmostEqual(got, 2, 1e-9) {
			t.Errorf("ExpansionFactor(%d, %d) = %v, want 2", f+1, f, got)
		}
	}
}

func TestProportionalityRatio(t *testing.T) {
	// For A(3,1): beta = 5/3, kappa = 4, r = 4^(2/3).
	r, err := ProportionalityRatio(5.0/3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(r, math.Pow(4, 2.0/3), 1e-12) {
		t.Errorf("r = %v, want 4^(2/3)", r)
	}
	// r^n must equal kappa^2: n merged turning points per single-robot
	// positive period.
	if !numeric.AlmostEqual(math.Pow(r, 3), 16, 1e-9) {
		t.Errorf("r^3 = %v, want 16", math.Pow(r, 3))
	}
}

func TestProportionalityRatioValidation(t *testing.T) {
	if _, err := ProportionalityRatio(1, 3); err == nil {
		t.Error("beta = 1 accepted")
	}
	if _, err := ProportionalityRatio(2, 0); err == nil {
		t.Error("n = 0 accepted")
	}
}

func TestConeCRKnownValues(t *testing.T) {
	// A(3,1) at its optimal beta = 5/3: CR = (8/3) * 4^(1/3) + 1.
	cr, err := ConeCR(5.0/3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := (8.0/3)*math.Cbrt(4) + 1
	if !numeric.AlmostEqual(cr, want, 1e-12) {
		t.Errorf("ConeCR(5/3, 3, 1) = %v, want %v", cr, want)
	}
	if !numeric.AlmostEqual(cr, 5.233, 2e-4) {
		t.Errorf("ConeCR(5/3, 3, 1) = %v, want ~5.233 (paper)", cr)
	}
}

func TestConeCRMinimisedAtOptimalBeta(t *testing.T) {
	// The Theorem 1 value must be a global minimum over beta: sample a
	// wide beta range and verify no value beats it.
	pairs := [][2]int{{2, 1}, {3, 1}, {4, 2}, {5, 3}, {11, 5}, {41, 20}}
	for _, p := range pairs {
		n, f := p[0], p[1]
		best, err := UpperBoundCR(n, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, beta := range numeric.Logspace(1.0001, 100, 400) {
			if beta <= 1 {
				continue
			}
			cr, err := ConeCR(beta, n, f)
			if err != nil {
				t.Fatal(err)
			}
			if cr < best-1e-9 {
				t.Errorf("(%d,%d): ConeCR(beta=%v) = %v beats Theorem 1 value %v", n, f, beta, cr, best)
			}
		}
	}
}

// TestUpperBoundCRTable1 checks Table 1's third column to the paper's
// printed precision.
func TestUpperBoundCRTable1(t *testing.T) {
	tests := []struct {
		n, f int
		want float64
		tol  float64
	}{
		{2, 1, 9, 1e-9},
		{3, 1, 5.24, 5e-3},
		{3, 2, 9, 1e-9},
		{4, 1, 1, 1e-12},
		{4, 2, 6.2, 5e-3},
		{4, 3, 9, 1e-9},
		{5, 1, 1, 1e-12},
		{5, 2, 4.43, 5e-3},
		{5, 3, 6.76, 5e-3},
		{5, 4, 9, 1e-9},
		{11, 5, 3.73, 5e-3},
		{41, 20, 3.24, 5e-3},
	}
	for _, tt := range tests {
		got, err := UpperBoundCR(tt.n, tt.f)
		if err != nil {
			t.Fatalf("UpperBoundCR(%d, %d): %v", tt.n, tt.f, err)
		}
		if !numeric.AlmostEqual(got, tt.want, tt.tol) {
			t.Errorf("UpperBoundCR(%d, %d) = %v, want %v (paper)", tt.n, tt.f, got, tt.want)
		}
	}
}

func TestUpperBoundCRNineExactlyWhenNEqualsFPlusOne(t *testing.T) {
	for f := 1; f <= 50; f++ {
		got, err := UpperBoundCR(f+1, f)
		if err != nil {
			t.Fatalf("UpperBoundCR(%d, %d): %v", f+1, f, err)
		}
		if !numeric.AlmostEqual(got, 9, 1e-9) {
			t.Errorf("UpperBoundCR(%d, %d) = %v, want exactly 9", f+1, f, got)
		}
	}
}

func TestUpperBoundCRHopeless(t *testing.T) {
	got, err := UpperBoundCR(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Errorf("UpperBoundCR(3, 3) = %v, want +Inf", got)
	}
}

// TestTheorem2AlphaTable1 checks Table 1's fourth column (non-trivial
// rows) to the paper's printed precision.
func TestTheorem2AlphaTable1(t *testing.T) {
	tests := []struct {
		n    int
		want float64
		tol  float64
	}{
		{3, 3.76, 5e-3},
		{4, 3.649, 5e-3},
		{5, 3.57, 5e-3},
		{11, 3.345, 5e-3},
		{41, 3.12, 7e-3}, // the paper rounds 3.1259 down to 3.12
	}
	for _, tt := range tests {
		got, err := Theorem2Alpha(tt.n)
		if err != nil {
			t.Fatalf("Theorem2Alpha(%d): %v", tt.n, err)
		}
		if !numeric.AlmostEqual(got, tt.want, tt.tol) {
			t.Errorf("Theorem2Alpha(%d) = %v, want ~%v (paper)", tt.n, got, tt.want)
		}
	}
}

func TestTheorem2AlphaSatisfiesEquation(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 7, 11, 20, 41, 100, 1000} {
		alpha, err := Theorem2Alpha(n)
		if err != nil {
			t.Fatalf("Theorem2Alpha(%d): %v", n, err)
		}
		if alpha <= 3 {
			t.Fatalf("Theorem2Alpha(%d) = %v, want > 3", n, alpha)
		}
		lhs := float64(n)*math.Log(alpha-1) + math.Log(alpha-3)
		rhs := float64(n+1) * math.Ln2
		if !numeric.AlmostEqual(lhs, rhs, 1e-9) {
			t.Errorf("n=%d: log-equation residual %v", n, lhs-rhs)
		}
	}
}

func TestTheorem2AlphaDecreasesWithN(t *testing.T) {
	prev := math.Inf(1)
	for n := 2; n <= 200; n++ {
		alpha, err := Theorem2Alpha(n)
		if err != nil {
			t.Fatalf("Theorem2Alpha(%d): %v", n, err)
		}
		if alpha >= prev {
			t.Errorf("Theorem2Alpha(%d) = %v not below previous %v", n, alpha, prev)
		}
		prev = alpha
	}
}

func TestLowerBoundCR(t *testing.T) {
	tests := []struct {
		n, f int
		want float64
		tol  float64
	}{
		{2, 1, 9, 0}, // n = f+1
		{3, 2, 9, 0}, // n = f+1
		{4, 3, 9, 0}, // n = f+1
		{5, 4, 9, 0}, // n = f+1
		{3, 1, 3.76, 5e-3},
		{4, 2, 3.649, 5e-3},
		{5, 2, 3.57, 5e-3},
		{5, 3, 3.57, 5e-3},
		{11, 5, 3.345, 5e-3},
		{41, 20, 3.12, 7e-3},
		{4, 1, 1, 0}, // trivial regime
		{5, 1, 1, 0},
	}
	for _, tt := range tests {
		got, err := LowerBoundCR(tt.n, tt.f)
		if err != nil {
			t.Fatalf("LowerBoundCR(%d, %d): %v", tt.n, tt.f, err)
		}
		if !numeric.AlmostEqual(got, tt.want, math.Max(tt.tol, 1e-12)) {
			t.Errorf("LowerBoundCR(%d, %d) = %v, want %v", tt.n, tt.f, got, tt.want)
		}
	}
}

// TestBoundsAreConsistent verifies upper >= lower across the whole
// proportional regime: the paper's algorithm can never beat the paper's
// lower bound.
func TestBoundsAreConsistent(t *testing.T) {
	for n := 1; n <= 120; n++ {
		for f := 0; f < n; f++ {
			if err := ValidateProportional(n, f); err != nil {
				continue
			}
			ub, err := UpperBoundCR(n, f)
			if err != nil {
				t.Fatalf("UpperBoundCR(%d, %d): %v", n, f, err)
			}
			lb, err := LowerBoundCR(n, f)
			if err != nil {
				t.Fatalf("LowerBoundCR(%d, %d): %v", n, f, err)
			}
			if ub < lb-1e-9 {
				t.Errorf("(%d,%d): upper bound %v below lower bound %v", n, f, ub, lb)
			}
		}
	}
}

// TestCRMonotoneInFaults: more faults can only hurt for fixed n.
func TestCRMonotoneInFaults(t *testing.T) {
	for n := 2; n <= 60; n++ {
		prev := 0.0
		for f := 0; f < n; f++ {
			cr, err := UpperBoundCR(n, f)
			if err != nil {
				if _, cerr := Classify(n, f); cerr != nil {
					t.Fatal(cerr)
				}
				continue
			}
			if cr < prev-1e-9 {
				t.Errorf("n=%d: CR(f=%d) = %v below CR(f=%d) = %v", n, f, cr, f-1, prev)
			}
			prev = cr
		}
	}
}
