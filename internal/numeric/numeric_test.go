package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAlmostEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b float64
		tol  float64
		want bool
	}{
		{"identical", 1.5, 1.5, 1e-12, true},
		{"within absolute tol", 1e-10, 0, 1e-9, true},
		{"outside absolute tol", 1e-8, 0, 1e-9, false},
		{"relative on large values", 1e9, 1e9 + 0.5, 1e-9, true},
		{"relative fails on large gap", 1e9, 1.001e9, 1e-9, false},
		{"nan left", math.NaN(), 0, 1, false},
		{"nan right", 0, math.NaN(), 1, false},
		{"nan both", math.NaN(), math.NaN(), 1, false},
		{"same infinities", math.Inf(1), math.Inf(1), 1e-9, true},
		{"opposite infinities", math.Inf(1), math.Inf(-1), 1e-9, false},
		{"inf vs finite", math.Inf(1), 1e300, 1e-9, false},
		{"negative pair", -3.0, -3.0 + 1e-12, 1e-9, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := AlmostEqual(tt.a, tt.b, tt.tol); got != tt.want {
				t.Errorf("AlmostEqual(%v, %v, %v) = %v, want %v", tt.a, tt.b, tt.tol, got, tt.want)
			}
		})
	}
}

func TestAlmostEqualSymmetric(t *testing.T) {
	f := func(a, b float64) bool {
		return AlmostEqual(a, b, 1e-9) == AlmostEqual(b, a, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPow(t *testing.T) {
	tests := []struct {
		name      string
		base, exp float64
		want      float64
	}{
		{"zero to zero is one", 0, 0, 1},
		{"zero to positive", 0, 2.5, 0},
		{"zero to negative", 0, -1, math.Inf(1)},
		{"ordinary", 2, 10, 1024},
		{"fractional exponent", 4, 0.5, 2},
		{"one to anything", 1, 12345.6, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Pow(tt.base, tt.exp); got != tt.want {
				t.Errorf("Pow(%v, %v) = %v, want %v", tt.base, tt.exp, got, tt.want)
			}
		})
	}
	if got := Pow(-2, 2); !math.IsNaN(got) {
		t.Errorf("Pow(-2, 2) = %v, want NaN", got)
	}
}

func TestKahanSumCancellation(t *testing.T) {
	// Summing 1 followed by 1e16 copies of 1e-16 naively loses all of the
	// small terms; the compensated sum must not.
	var k KahanSum
	k.Add(1)
	for i := 0; i < 1_000_000; i++ {
		k.Add(1e-16)
	}
	want := 1 + 1e-10
	if !AlmostEqual(k.Value(), want, 1e-12) {
		t.Errorf("compensated sum = %.17g, want %.17g", k.Value(), want)
	}
}

func TestLinspace(t *testing.T) {
	pts := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(pts) != len(want) {
		t.Fatalf("len = %d, want %d", len(pts), len(want))
	}
	for i := range want {
		if !AlmostEqual(pts[i], want[i], 1e-9) {
			t.Errorf("pts[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestLinspaceEndpointsExact(t *testing.T) {
	pts := Linspace(1.1, 9.7, 37)
	if pts[0] != 1.1 || pts[len(pts)-1] != 9.7 {
		t.Errorf("endpoints %v, %v not exact", pts[0], pts[len(pts)-1])
	}
}

func TestLogspace(t *testing.T) {
	pts := Logspace(1, 1000, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if !AlmostEqual(pts[i], want[i], 1e-12) {
			t.Errorf("pts[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestLogspacePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Logspace(0, 1, 3) did not panic")
		}
	}()
	Logspace(0, 1, 3)
}
