package compiled_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"linesearch/internal/compiled"
	"linesearch/internal/fault"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
)

// diffTol is the required agreement between the three engines. The
// compiled kernel and internal/sim share their crossing arithmetic, so
// their disagreement is essentially zero; stepsim interpolates with its
// own code path and contributes the rounding budget.
const diffTol = 1e-9

// relErr is the relative disagreement |a-b| / max(1, |a|, |b|), with
// two infinities agreeing exactly.
func relErr(a, b float64) float64 {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return 0
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) / scale
}

// resolveStrategy mirrors the sweep engine's name resolution: "auto"
// picks the paper's recommendation for the pair.
func resolveStrategy(name string, n, f int) (strategy.Strategy, error) {
	if name == "auto" {
		return strategy.ForPair(n, f)
	}
	return strategy.Parse(name)
}

// stepWorld rebuilds the plan inside the independent discrete-time
// engine (stepsim_test.go): each robot is reduced to its polyline
// corners up to tmax.
func stepWorld(t *testing.T, plan *sim.Plan, tmax float64) *stepEngine {
	t.Helper()
	robots := make([]*stepRobot, 0, plan.N())
	for i, tr := range plan.Trajectories() {
		r, err := newStepRobot(cornersUntil(tr, tmax))
		if err != nil {
			t.Fatalf("robot %d: %v", i, err)
		}
		robots = append(robots, r)
	}
	w, err := newStepEngine(robots, tmax/64)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestDifferentialCompiledSimStepsim is the kernel's correctness
// anchor: >= 1000 randomized (n, f, strategy, x) cases evaluated by the
// compiled kernel, the exact closed-form engine (internal/sim) and the
// independent discrete-time engine (stepsim_test.go) must agree to
// 1e-9. Every k of KthDistinctVisit is cross-checked between compiled
// and sim as well, and so is sim.Plan.DetectionTime: under a random
// crash set against stepsim's earliest reliable visitor, and under the
// worst-case assignment against the compiled search time.
func TestDifferentialCompiledSimStepsim(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	// Crash sets draw from their own stream so the case sequence above
	// stays the same.
	setRng := rand.New(rand.NewSource(20260807))
	names := []string{"auto", "proportional", "doubling", "twogroup",
		"cone:2.5", "cone:4", "uniform:3"}

	const wantCases = 1200
	const targetsPerPlan = 8
	cases := 0
	for cases < wantCases {
		n := 1 + rng.Intn(10)
		f := rng.Intn(n)
		name := names[rng.Intn(len(names))]
		st, err := resolveStrategy(name, n, f)
		if err != nil {
			continue // e.g. twogroup outside its regime
		}
		plan, err := sim.FromStrategy(st, n, f)
		if err != nil {
			continue
		}
		cp, err := compiled.Compile(plan)
		if err != nil {
			t.Fatalf("compile %s(%d,%d): %v", name, n, f, err)
		}

		for i := 0; i < targetsPerPlan; i++ {
			x := math.Pow(10, 4*rng.Float64()) // log-uniform in [1, 1e4]
			if rng.Intn(2) == 0 {
				x = -x
			}
			label := fmt.Sprintf("%s(n=%d,f=%d) x=%g", name, n, f, x)

			tSim := plan.SearchTime(x)
			tCompiled := cp.SearchTime(x)
			if e := relErr(tSim, tCompiled); e > diffTol {
				t.Fatalf("%s: compiled %v vs sim %v (rel err %g)", label, tCompiled, tSim, e)
			}

			for k := 1; k <= n; k++ {
				a, errA := plan.KthDistinctVisit(x, k)
				b, errB := cp.KthDistinctVisit(x, k)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("%s k=%d: error mismatch sim=%v compiled=%v", label, k, errA, errB)
				}
				if errA == nil {
					if e := relErr(a, b); e > diffTol {
						t.Fatalf("%s k=%d: compiled %v vs sim %v (rel err %g)", label, k, b, a, e)
					}
				}
			}

			if !math.IsInf(tSim, 1) {
				tmax := 1.1*tSim + 1
				w := stepWorld(t, plan, tmax)
				tStep, err := w.searchTime(x, f, tmax)
				if err != nil {
					t.Fatalf("%s: stepsim: %v", label, err)
				}
				if e := relErr(tSim, tStep); e > diffTol {
					t.Fatalf("%s: stepsim %v vs sim %v (rel err %g)", label, tStep, tSim, e)
				}

				// Detection under given faults: a random crash set of
				// size f is found by the earliest reliable visitor.
				set := make(fault.Set, n)
				for _, r := range setRng.Perm(n)[:f] {
					set[r] = fault.Crash
				}
				tDet, err := plan.DetectionTime(x, set)
				if err != nil {
					t.Fatalf("%s: DetectionTime: %v", label, err)
				}
				tStepDet := math.Inf(1)
				for _, v := range w.firstVisits(x, tmax) {
					if set[v.Robot] == fault.Reliable {
						tStepDet = v.T
						break
					}
				}
				if e := relErr(tDet, tStepDet); e > diffTol {
					t.Fatalf("%s crashed %v: DetectionTime %v vs stepsim %v (rel err %g)", label, set, tDet, tStepDet, e)
				}
			}
			worst, err := plan.DetectionTime(x, plan.WorstFaultAssignment(x))
			if err != nil {
				t.Fatalf("%s: DetectionTime: %v", label, err)
			}
			if e := relErr(worst, tCompiled); e > diffTol {
				t.Fatalf("%s: worst-case DetectionTime %v vs compiled %v (rel err %g)", label, worst, tCompiled, e)
			}
			cases++
		}
	}
	if cases < 1000 {
		t.Fatalf("only %d differential cases ran, want >= 1000", cases)
	}
}

// TestDifferentialCappedCompilation forces the corner cap low so the
// fallback path (targets beyond the compiled envelope) is exercised and
// must still agree with the reference engine.
func TestDifferentialCappedCompilation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	plan, err := sim.FromStrategy(strategy.Proportional{}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := compiled.CompileCapped(plan, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		x := math.Pow(10, 6*rng.Float64()) // up to 1e6, far past 8 corners
		if rng.Intn(2) == 0 {
			x = -x
		}
		want := plan.SearchTime(x)
		got := cp.SearchTime(x)
		if e := relErr(want, got); e > diffTol {
			t.Fatalf("x=%g: capped compiled %v vs sim %v (rel err %g)", x, got, want, e)
		}
	}
}
