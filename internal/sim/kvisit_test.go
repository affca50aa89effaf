package sim

import (
	"math"
	"testing"

	"linesearch/internal/numeric"
	"linesearch/internal/strategy"
)

func TestKthDistinctVisit(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 5, 2)
	x := 3.3
	visits := p.FirstVisits(x)
	for k := 1; k <= 5; k++ {
		got, err := p.KthDistinctVisit(x, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != visits[k-1].T {
			t.Errorf("k=%d: %v, want %v", k, got, visits[k-1].T)
		}
	}
	// k = f+1 is the search time.
	st, err := p.KthDistinctVisit(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(st, p.SearchTime(x), 1e-12) {
		t.Errorf("KthDistinctVisit(x, f+1) = %v != SearchTime %v", st, p.SearchTime(x))
	}
}

func TestKthDistinctVisitValidation(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	if _, err := p.KthDistinctVisit(1, 0); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := p.KthDistinctVisit(1, 4); err == nil {
		t.Error("k > n accepted")
	}
}

func TestKthDistinctVisitInsufficientVisitors(t *testing.T) {
	// Two-group: only one side's robots ever visit a positive target.
	p := mustPlan(t, strategy.TwoGroup{}, 6, 2)
	got, err := p.KthDistinctVisit(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Errorf("6th visitor of one-sided target = %v, want +Inf", got)
	}
}

func TestWithFaultBudget(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 5, 2)
	for f := 0; f < 5; f++ {
		q, err := p.WithFaultBudget(f)
		if err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		if q.model.F != f || len(q.trajs) != 5 {
			t.Errorf("f=%d: got N=%d F=%d", f, len(q.trajs), q.model.F)
		}
		want, err := p.KthDistinctVisit(2.2, f+1)
		if err != nil {
			t.Fatal(err)
		}
		if got := q.SearchTime(2.2); !numeric.AlmostEqual(got, want, 1e-12) {
			t.Errorf("f=%d: SearchTime %v, want %v", f, got, want)
		}
	}
	if _, err := p.WithFaultBudget(5); err == nil {
		t.Error("f = n accepted")
	}
}

// TestKthDistinctVisitValidatesKFirst pins the evaluation order: an
// out-of-range k is rejected before any trajectory is queried, so even
// an undefined target position cannot mask the error.
func TestKthDistinctVisitValidatesKFirst(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	for _, x := range []float64{2, math.NaN(), math.Inf(1)} {
		if _, err := p.KthDistinctVisit(x, 4); err == nil {
			t.Errorf("x=%v: k > n accepted", x)
		}
		if _, err := p.KthDistinctVisit(x, 0); err == nil {
			t.Errorf("x=%v: k = 0 accepted", x)
		}
	}
}
