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

// TestEmpiricalCRDeterministicAcrossParallelism: the search result,
// including the witness, must not depend on the worker count.
func TestEmpiricalCRDeterministicAcrossParallelism(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 5, 3)
	var base compiled.CRResult
	for i, workers := range []int{1, 2, 3, 8, 64} {
		res, err := empiricalCR(p, compiled.CROptions{Parallelism: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			base = res
			continue
		}
		if res != base {
			t.Errorf("workers=%d: result %+v differs from serial %+v", workers, res, base)
		}
	}
}

func TestEmpiricalCRParallelismValidation(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	if _, err := empiricalCR(p, compiled.CROptions{Parallelism: -2}); err == nil {
		t.Error("negative parallelism accepted")
	}
}

// TestEmpiricalCRScaledPlan: a schedule scaled for minimal distance 10
// must measure the same competitive ratio over |x| >= 10.
func TestEmpiricalCRScaledPlan(t *testing.T) {
	const dmin = 10.0
	p := mustPlan(t, strategy.Proportional{MinDistance: dmin}, 3, 1)
	want, err := analysis.UpperBoundCR(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := empiricalCR(p, compiled.CROptions{XMin: dmin, XMax: dmin * 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(res.Sup, want, 1e-6) {
		t.Errorf("scaled plan CR = %v, want %v", res.Sup, want)
	}
	if math.Abs(res.ArgX) < dmin {
		t.Errorf("witness %v below the scaled minimal distance", res.ArgX)
	}
}

func TestEmpiricalCRXMinValidation(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	if _, err := empiricalCR(p, compiled.CROptions{XMin: -1, XMax: 10}); err == nil {
		t.Error("negative XMin accepted")
	}
	if _, err := empiricalCR(p, compiled.CROptions{XMin: 5, XMax: 5}); err == nil {
		t.Error("XMax == XMin accepted")
	}
}

// TestEmpiricalCRStableAcrossWindow: the schedule is self-similar, so
// the measured supremum must not depend on how many expansion periods
// the search window covers.
func TestEmpiricalCRStableAcrossWindow(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	var base compiled.CRResult
	for i, xmax := range []float64{100, 1000, 1e4, 1e5} {
		res, err := empiricalCR(p, compiled.CROptions{XMax: xmax})
		if err != nil {
			t.Fatalf("xmax=%v: %v", xmax, err)
		}
		if i == 0 {
			base = res
			continue
		}
		if !numeric.AlmostEqual(res.Sup, base.Sup, 1e-9) {
			t.Errorf("xmax=%v: sup %v drifted from %v", xmax, res.Sup, base.Sup)
		}
	}
}

// visitorsBy is the oracle of the Figure 4 "tower": how many distinct
// robots have visited x by time t (inclusive).
func visitorsBy(p *sim.Plan, x, t float64) int {
	count := 0
	for _, v := range p.FirstVisits(x) {
		if v.T <= t {
			count++
		}
	}
	return count
}

// coveredBy returns the tower as Figure 4 draws it: a target at x is
// guaranteed detected by time t when the kernel's search time, the
// (f+1)-st first visit, is at most t.
func coveredBy(t *testing.T, p *sim.Plan) func(x, tt float64) bool {
	t.Helper()
	kernel, err := compiled.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return func(x, tt float64) bool { return kernel.SearchTime(x) <= tt }
}

// TestVisitorsByTower checks the Figure 4 "tower": the count of distinct
// visitors of x by time t is nondecreasing in t, and crossing f+1 is
// exactly when the tower covers x.
func TestVisitorsByTower(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	covered := coveredBy(t, p)
	x := 2.0
	visits := p.FirstVisits(x)
	if len(visits) != 3 {
		t.Fatalf("expected 3 visitors, got %d", len(visits))
	}
	prev := 0
	for _, probe := range []float64{0, visits[0].T - 1e-9, visits[0].T, visits[1].T, visits[2].T, visits[2].T * 2} {
		got := visitorsBy(p, x, probe)
		if got < prev {
			t.Errorf("VisitorsBy(%v, %v) = %d decreased from %d", x, probe, got, prev)
		}
		if covered(x, probe) != (got >= 2) {
			t.Errorf("tower at (%v, %v) is %v with %d visitors", x, probe, covered(x, probe), got)
		}
		prev = got
	}
	if visitorsBy(p, x, visits[0].T-1e-6) != 0 {
		t.Error("visitors counted before the first visit")
	}
	if visitorsBy(p, x, visits[2].T) != 3 {
		t.Error("not all visitors counted at the last first-visit")
	}
	// The tower covers x exactly from the (f+1)-st = 2nd distinct visit.
	if covered(x, visits[1].T-1e-6) {
		t.Error("covered before the (f+1)-st visit")
	}
	if !covered(x, visits[1].T) {
		t.Error("not covered at the (f+1)-st visit")
	}
	// Consistency with SearchTime.
	if st := p.SearchTime(x); !numeric.AlmostEqual(st, visits[1].T, 1e-12) {
		t.Errorf("SearchTime %v != second visit %v", st, visits[1].T)
	}
}

// TestCoveredRegionIsUpwardClosed: once covered, always covered (the
// tower contains every point above its boundary).
func TestCoveredRegionIsUpwardClosed(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 5, 2)
	covered := coveredBy(t, p)
	for _, x := range []float64{1.3, -2.8, 7.7} {
		st := p.SearchTime(x)
		for _, dt := range []float64{0, 0.1, 3, 1000} {
			if !covered(x, st+dt) {
				t.Errorf("x=%v not covered at t=%v >= search time %v", x, st+dt, st)
			}
		}
		if covered(x, st*0.999999-1e-9) {
			t.Errorf("x=%v covered strictly before its search time %v", x, st)
		}
	}
}
