package compiled_test

import (
	"math"
	"math/rand"
	"testing"

	"linesearch"
	"linesearch/internal/compiled"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
)

// crashCases are the crash-model strategy/(n, f) seeds the expected-time
// fuzz target draws from.
var crashCases = []struct {
	strat string
	n, f  int
}{
	{"proportional", 2, 1},
	{"proportional", 3, 1},
	{"proportional", 4, 2},
	{"proportional", 5, 2},
	{"proportional", 7, 3},
	{"twogroup", 4, 1},
	{"twogroup", 6, 2},
	{"twogroup", 8, 3},
	{"doubling", 1, 0},
	{"doubling", 3, 1},
	{"doubling", 4, 3},
	{"cone:1.7", 3, 1},
	{"cone:3.5", 5, 2},
	{"uniform:2.5", 4, 2},
}

// closeTimes compares detection times at relative tolerance, treating
// equal infinities as equal.
func closeTimes(a, b, tol float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// FuzzExpectedMatchesWorstCase pins the expected-time series to the
// deterministic evaluators: with miss probability 0 every surviving
// robot confirms at its first visit, so the expectation must equal the
// worst-case search time — the compiled kernel's at unit speeds, and
// the public SearchTimeWithSpeeds at the speeds drawn from speedSeed
// (0 means unit speeds).
func FuzzExpectedMatchesWorstCase(fz *testing.F) {
	fz.Add(uint8(0), 4.0, int64(0))
	fz.Add(uint8(5), -7.5, int64(1))
	fz.Add(uint8(9), 1e6, int64(2))
	fz.Add(uint8(13), 0.0, int64(3))
	fz.Add(uint8(3), -1e-3, int64(0))
	fz.Add(uint8(10), 8.0, int64(4))
	fz.Fuzz(func(t *testing.T, idx uint8, x float64, speedSeed int64) {
		c := crashCases[int(idx)%len(crashCases)]
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
			t.Skip()
		}
		st, err := strategy.Parse(c.strat)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.strat, err)
		}
		plan, err := sim.FromStrategy(st, c.n, c.f)
		if err != nil {
			t.Fatalf("FromStrategy(%s, %d, %d): %v", c.strat, c.n, c.f, err)
		}
		cp, err := compiled.Compile(plan)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		got, err := cp.ExpectedSearchTime(x, 0, nil)
		if err != nil {
			t.Fatalf("ExpectedSearchTime: %v", err)
		}
		if want := cp.SearchTime(x); !closeTimes(got, want, 1e-9) {
			t.Fatalf("%s(%d,%d) x=%g: expected %v, compiled worst case %v", c.strat, c.n, c.f, x, got, want)
		}

		s, err := linesearch.NewWithStrategy(c.strat, c.n, c.f)
		if err != nil {
			t.Fatalf("NewWithStrategy: %v", err)
		}
		if math.Abs(x) < s.MinDistance() {
			return // the public API rejects targets this close
		}
		var speeds []float64
		if speedSeed != 0 {
			rng := rand.New(rand.NewSource(speedSeed))
			speeds = make([]float64, c.n)
			for i := range speeds {
				speeds[i] = 0.25 * math.Pow(16, rng.Float64()) // log-uniform in [0.25, 4)
			}
		}
		got, err = cp.ExpectedSearchTime(x, 0, speeds)
		if err != nil {
			t.Fatalf("ExpectedSearchTime at speeds %v: %v", speeds, err)
		}
		want, err := s.SearchTimeWithSpeeds(x, speeds)
		if err != nil {
			t.Fatalf("SearchTimeWithSpeeds: %v", err)
		}
		if !closeTimes(got, want, 1e-9) {
			t.Fatalf("%s(%d,%d) x=%g speeds %v: expected %v, worst case %v", c.strat, c.n, c.f, x, speeds, got, want)
		}
	})
}
