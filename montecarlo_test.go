package linesearch

import (
	"math"
	"runtime"
	"testing"
)

func TestMonteCarloDeterministicBySeed(t *testing.T) {
	s := mustSearcher(t, 5, 2)
	a, err := s.MonteCarlo(500, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.MonteCarlo(500, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
	c, err := s.MonteCarlo(500, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean == c.Mean {
		t.Error("different seeds produced identical means (suspicious)")
	}
}

// TestMonteCarloDeterministicAcrossParallelism: the per-trial seeding
// makes the run independent of the worker count.
func TestMonteCarloDeterministicAcrossParallelism(t *testing.T) {
	s := mustSearcher(t, 5, 2)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var base Stats
	for i, procs := range []int{1, 2, 7, 32} {
		runtime.GOMAXPROCS(procs)
		res, err := s.MonteCarlo(400, 3)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if i == 0 {
			base = res
		} else if res != base {
			t.Errorf("GOMAXPROCS=%d: %+v differs from serial %+v", procs, res, base)
		}
	}
}

// TestMonteCarloEdgeCases: a single trial gives a point distribution,
// and more workers than trials still matches the serial run.
func TestMonteCarloEdgeCases(t *testing.T) {
	s := mustSearcher(t, 3, 1)
	one, err := s.MonteCarlo(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if one.Trials != 1 || one.Min != one.Max || one.Mean != one.Min ||
		one.Median != one.Min || one.P95 != one.Min || one.P99 != one.Min {
		t.Errorf("one trial: want every statistic equal, got %+v", one)
	}
	if one.Min < 1-1e-9 || math.IsNaN(one.Min) {
		t.Errorf("one trial: ratio %v below 1", one.Min)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	serial, err := s.MonteCarlo(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(64)
	over, err := s.MonteCarlo(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if over.Trials != 3 || over != serial {
		t.Errorf("workers > trials: %+v differs from serial %+v", over, serial)
	}
}

func TestMonteCarloBoundedByWorstCase(t *testing.T) {
	s := mustSearcher(t, 3, 1)
	cr, err := s.CompetitiveRatio()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := s.MonteCarlo(3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Max > cr+1e-9 {
		t.Errorf("random-fault max ratio %v exceeds worst-case CR %v", mc.Max, cr)
	}
	if mc.Min < 1-1e-9 {
		t.Errorf("ratio %v below 1 (faster than distance?)", mc.Min)
	}
	if !(mc.Mean < cr) {
		t.Errorf("mean %v not below worst case %v", mc.Mean, cr)
	}
	if mc.Trials != 3000 {
		t.Errorf("Trials = %d", mc.Trials)
	}
}

func TestMonteCarloRandomFaultsKinderThanAdversary(t *testing.T) {
	// With 5 robots / 2 faults, a random pair of faulty robots rarely
	// coincides with the two earliest visitors, so the mean ratio should
	// sit strictly below the worst case by a visible margin.
	s := mustSearcher(t, 5, 2)
	cr, err := s.CompetitiveRatio()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := s.MonteCarlo(4000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if cr-mc.Mean < 0.3 {
		t.Errorf("mean %v suspiciously close to worst case %v", mc.Mean, cr)
	}
}

func TestMonteCarloQuantiles(t *testing.T) {
	s := mustSearcher(t, 3, 1)
	mc, err := s.MonteCarlo(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !(mc.Min <= mc.Median && mc.Median <= mc.P95 && mc.P95 <= mc.P99 && mc.P99 <= mc.Max) {
		t.Errorf("quantiles not monotone: %+v", mc)
	}
	if !(mc.Min < mc.Max) {
		t.Errorf("degenerate distribution over 2000 random searches: %+v", mc)
	}
}

func TestMonteCarloZeroFaults(t *testing.T) {
	// Two-group with f+1 = 2 robots per side: every target is found at
	// time exactly |x| whenever at least one reliable robot sweeps its
	// side; the max ratio over random single faults must stay 1, and
	// with no faults at all every ratio is exactly 1.
	for _, f := range []int{1, 0} {
		s, err := NewWithStrategy("twogroup", 4, f)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := s.MonteCarlo(200, 2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mc.Max-1) > 1e-9 || math.Abs(mc.Min-1) > 1e-9 {
			t.Errorf("f=%d: two-group ratios in [%v, %v], want 1", f, mc.Min, mc.Max)
		}
		if math.IsNaN(mc.Mean) {
			t.Errorf("f=%d: mean is NaN", f)
		}
	}
}

func TestMonteCarloConfigValidation(t *testing.T) {
	s := mustSearcher(t, 3, 1)
	for _, trials := range []int{0, -5} {
		if _, err := s.MonteCarlo(trials, 1); err == nil {
			t.Errorf("trials=%d accepted", trials)
		}
	}
}
