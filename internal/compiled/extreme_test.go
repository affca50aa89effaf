package compiled_test

import (
	"fmt"
	"math"
	"testing"

	"linesearch/internal/compiled"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
)

// TestExtremeInputsNeverNaN is the kernel's property test over extreme
// inputs: targets up to |x| = 1e300 (and the largest float64), minimal
// distances from 1e-300 to 1e300, a cone barely wider than its apex
// (beta = 1.000001, expansion factor 2e6) and n = f+1 with large f.
// Every answer, from the scan and from the phase table wherever it
// answers, must be finite or +Inf, never NaN; plans the schedule cannot
// represent must fail with an error.
func TestExtremeInputsNeverNaN(t *testing.T) {
	cases := []struct {
		st   strategy.Strategy
		n, f int
	}{
		{strategy.Proportional{MinDistance: 1e-300}, 5, 2},
		{strategy.Proportional{MinDistance: 1e300}, 5, 2},
		{strategy.Proportional{MinDistance: 1e-12}, 21, 10},
		{strategy.Proportional{MinDistance: 1e12}, 21, 10},
		{strategy.Cone{Beta: 1.000001}, 5, 2},
		{strategy.Cone{Beta: 1.000001, MinDistance: 1e-300}, 5, 2},
		{strategy.Cone{Beta: 1.000001, MinDistance: 1e300}, 5, 2},
		{strategy.Proportional{}, 101, 100},
		{strategy.Proportional{}, 1001, 1000},
	}
	var xs []float64
	for _, x := range []float64{1e-300, 1e-12, 1, 7.5, 1e12, 1e100, 1e200, 1e300, math.MaxFloat64} {
		xs = append(xs, x, -x)
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s(%d,%d)%v", c.st.Name(), c.n, c.f, c.st), func(t *testing.T) {
			plan, err := sim.FromStrategy(c.st, c.n, c.f)
			if err != nil {
				t.Logf("rejected with an error: %v", err)
				return
			}
			cp, err := compiled.Compile(plan)
			if err != nil {
				t.Fatal(err)
			}
			e := cp.Evaluator()
			defer e.Release()
			ranks := []int{1, cp.Model().DetectionRank(), c.n}
			for _, k := range ranks {
				e.BuildTable(k)
				for _, x := range xs {
					if v := e.ScanKth(x, k); math.IsNaN(v) || math.IsInf(v, -1) {
						t.Errorf("scan: T_%d(%g) = %v", k, x, v)
					}
					if v, ok := e.TableKth(x, k); ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
						t.Errorf("table: T_%d(%g) = %v", k, x, v)
					}
				}
			}
		})
	}
}
