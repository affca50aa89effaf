package compiled_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"linesearch/internal/compiled"
	"linesearch/internal/fault"
	"linesearch/internal/geom"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
	"linesearch/internal/trajectory"
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
	robots := make([]*stepRobot, 0, len(plan.Trajectories()))
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
// and sim as well. Plan.FirstVisits must return every robot's sim
// first visit bit for bit, and the detection time read from it must
// agree under a random crash set with stepsim's earliest reliable
// visitor, and under sim's worst-case assignment (the f earliest
// visitors crash) with the compiled search time.
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
			firsts := cp.FirstVisits(x, nil)
			want := make([]float64, n)
			for r := range want {
				want[r] = math.Inf(1)
			}
			simVisits := plan.FirstVisits(x)
			for _, v := range simVisits {
				want[v.Robot] = v.T
			}
			for r := range want {
				if math.Float64bits(firsts[r]) != math.Float64bits(want[r]) {
					t.Fatalf("%s robot %d: FirstVisits %v vs sim %v", label, r, firsts[r], want[r])
				}
			}
			// earliestReliable is the detection time under a crash set:
			// the first visit of a robot outside it.
			earliestReliable := func(set fault.Set) float64 {
				first := math.Inf(1)
				for r, ft := range firsts {
					if set[r] == fault.Reliable {
						first = math.Min(first, ft)
					}
				}
				return first
			}
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
				tDet := earliestReliable(set)
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
			worstSet := make(fault.Set, n)
			for _, v := range simVisits[:min(f, len(simVisits))] {
				worstSet[v.Robot] = fault.Crash
			}
			worst := earliestReliable(worstSet)
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

// TestDifferentialCappedCompilation forces the corner cap low so most
// targets lie beyond the compiled corners, where every robot answers
// through its tail's closed form, and checks every rank against the
// reference engine. The plans cover each tail: zig-zags (proportional,
// a wide cone, the doubling baseline), rays (two-group), half-line
// zig-zags (p-faulty), and one mixed fleet adding a robot that halts.
func TestDifferentialCappedCompilation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type namedPlan struct {
		name string
		plan *sim.Plan
	}
	var plans []namedPlan
	for _, c := range []struct {
		name string
		n, f int
	}{
		{"proportional", 3, 1}, {"cone:1.5", 5, 2}, {"doubling", 4, 1}, {"twogroup", 6, 2}, {"pfaulty", 5, 2},
	} {
		st, err := strategy.Parse(c.name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sim.FromStrategy(st, c.n, c.f)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, namedPlan{fmt.Sprintf("%s(%d,%d)", c.name, c.n, c.f), plan})
	}
	plans = append(plans, namedPlan{"mixed", mixedTailPlan(t)})
	for _, np := range plans {
		name, plan := np.name, np.plan
		cp, err := compiled.CompileCapped(plan, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			x := math.Pow(10, 6*rng.Float64()) // up to 1e6, far past 8 corners
			if rng.Intn(2) == 0 {
				x = -x
			}
			for k := 1; k <= cp.N(); k++ {
				want, _ := plan.KthDistinctVisit(x, k)
				got, _ := cp.KthDistinctVisit(x, k)
				if e := relErr(want, got); e > diffTol {
					t.Fatalf("%s x=%g k=%d: capped compiled %v vs sim %v (rel err %g)", name, x, k, got, want, e)
				}
			}
		}
	}
}

// mixedTailPlan is a four-robot fleet with one robot per tail kind: a
// zig-zag, a ray sweeping left, a half-line zig-zag sweeping right, and
// a robot that walks to x = 50 and halts.
func mixedTailPlan(t testing.TB) *sim.Plan {
	t.Helper()
	cone := geom.MustCone(2)
	zz, err := trajectory.NewZigZag(cone, cone.BoundaryPoint(1))
	if err != nil {
		t.Fatal(err)
	}
	ray, err := trajectory.NewRay(geom.Point{X: 0, T: 0}, trajectory.Left)
	if err != nil {
		t.Fatal(err)
	}
	half, err := trajectory.NewHalfZigZag(geom.Point{X: 0, T: 0}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	end := geom.Point{X: 50, T: 50}
	halt, err := trajectory.NewHalt(end)
	if err != nil {
		t.Fatal(err)
	}
	trajs := []*trajectory.Trajectory{
		trajectory.Must([]geom.Segment{{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: 1, T: 1}}, {From: geom.Point{X: 1, T: 1}, To: cone.BoundaryPoint(1)}}, zz),
		trajectory.Must(nil, ray),
		trajectory.Must(nil, half),
		trajectory.Must([]geom.Segment{{From: geom.Point{X: 0, T: 0}, To: end}}, halt),
	}
	plan, err := sim.NewPlanModel(trajs, fault.CrashModel(1))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}
