package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"linesearch/internal/fault"
	"linesearch/internal/geom"
	"linesearch/internal/numeric"
	"linesearch/internal/strategy"
	"linesearch/internal/trajectory"
)

// detectionTime is the oracle of the detection rule under a concrete
// fault assignment: the VotesRequired-th first visit by a robot that
// confirms (1 vote in the crash model, f+1 by default in the Byzantine
// model), +Inf when fewer confirming robots ever visit x. len(set) must
// equal n.
func detectionTime(p *Plan, x float64, set fault.Set) (float64, error) {
	if len(set) != len(p.trajs) {
		return 0, fmt.Errorf("sim: fault assignment has %d entries for %d robots", len(set), len(p.trajs))
	}
	votes := p.Model().VotesRequired()
	for _, v := range p.FirstVisits(x) {
		if set[v.Robot].Confirms() {
			if votes--; votes == 0 {
				return v.T, nil
			}
		}
	}
	return math.Inf(1), nil
}

// worstFaultAssignment is the oracle of the adversary's fault set
// against a target at x: the f distinct earliest visitors (ties broken
// by robot index), assigned the model's worst kind.
func worstFaultAssignment(p *Plan, x float64) fault.Set {
	set := make(fault.Set, len(p.trajs))
	visits := p.FirstVisits(x)
	for i := 0; i < len(visits) && i < p.model.F; i++ {
		set[visits[i].Robot] = p.Model().WorstKind()
	}
	return set
}

func mustPlan(t *testing.T, st strategy.Strategy, n, f int) *Plan {
	t.Helper()
	p, err := FromStrategy(st, n, f)
	if err != nil {
		t.Fatalf("FromStrategy(%s, %d, %d): %v", st.Name(), n, f, err)
	}
	return p
}

// TestFromStrategyAllocs pins the allocations of building A(1001, 500)
// from trajectories: per robot its trajectory and the legs
// trajectory.New copies (the start-up legs are appended to a stack
// buffer), then the schedule, its robots, the trajectory slice, the
// plan and the plan's copy of that slice.
func TestFromStrategyAllocs(t *testing.T) {
	const n = 1001
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := FromStrategy(strategy.Proportional{}, n, n/2); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(2*n + 5); allocs != want {
		t.Errorf("FromStrategy(proportional, %d, %d) allocates %v times, want %v", n, n/2, allocs, want)
	}
}

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlanModel(nil, fault.CrashModel(0)); err == nil {
		t.Error("empty plan accepted")
	}
	tr := trajectory.Must(nil, trajectory.MustRay(geom.Point{X: 0, T: 0}, trajectory.Right))
	if _, err := NewPlanModel([]*trajectory.Trajectory{tr}, fault.CrashModel(1)); err == nil {
		t.Error("f >= n accepted")
	}
	if _, err := NewPlanModel([]*trajectory.Trajectory{tr}, fault.CrashModel(-1)); err == nil {
		t.Error("negative f accepted")
	}
	if _, err := NewPlanModel([]*trajectory.Trajectory{nil}, fault.CrashModel(0)); err == nil {
		t.Error("nil trajectory accepted")
	}
	p, err := NewPlanModel([]*trajectory.Trajectory{tr}, fault.CrashModel(0))
	if err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if len(p.trajs) != 1 || p.model.F != 0 {
		t.Errorf("N, F = %d, %d", len(p.trajs), p.model.F)
	}
	if len(p.Trajectories()) != 1 {
		t.Error("Trajectories() wrong length")
	}
}

func TestFirstVisitsSortedAndComplete(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	visits := p.FirstVisits(1.5)
	if len(visits) != 3 {
		t.Fatalf("got %d visits, want 3 (every robot eventually visits)", len(visits))
	}
	seen := map[int]bool{}
	for i, v := range visits {
		if seen[v.Robot] {
			t.Errorf("robot %d appears twice", v.Robot)
		}
		seen[v.Robot] = true
		if i > 0 && v.T < visits[i-1].T {
			t.Errorf("visits not sorted: %v", visits)
		}
	}
}

func TestSearchTimeIsFPlusFirstDistinctVisit(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	visits := p.FirstVisits(2)
	if got := p.SearchTime(2); got != visits[1].T {
		t.Errorf("SearchTime(2) = %v, want second visit %v", got, visits[1].T)
	}
}

func TestSearchTimeAtLeastDistance(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 5, 3)
	f := func(xRaw float64) bool {
		if math.IsNaN(xRaw) {
			return true
		}
		x := 1 + math.Abs(math.Mod(xRaw, 1e4))
		if math.Mod(xRaw, 2) < 1 {
			x = -x
		}
		return p.SearchTime(x) >= math.Abs(x)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSearchTimeInfiniteWhenUndetectable(t *testing.T) {
	// A single halting robot with f = 0 never reaches x = 5.
	legs := []geom.Segment{{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: 4, T: 4}}}
	tr := trajectory.Must(legs, nil)
	p, err := NewPlanModel([]*trajectory.Trajectory{tr, tr}, fault.CrashModel(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.SearchTime(5); !math.IsInf(got, 1) {
		t.Errorf("SearchTime(5) = %v, want +Inf", got)
	}
	// x = 3 is visited by both copies, so even with one fault it is found.
	if got := p.SearchTime(3); math.IsInf(got, 1) {
		t.Error("SearchTime(3) infinite despite two visitors")
	}
}

// TestFirstVisitsDropsOverflowingVisits pins the visitor list at a
// target near MaxFloat64: proportional (2,1) reaches x = 1e308 only at a
// time past float64's range, so FirstVisits lists no visitor there, the
// search time is +Inf and the adversary corrupts no robot, as in the
// compiled kernel.
func TestFirstVisitsDropsOverflowingVisits(t *testing.T) {
	const x = 1e308
	p := mustPlan(t, strategy.Proportional{}, 2, 1)
	overflowing := 0
	for _, tr := range p.Trajectories() {
		if tv, ok := tr.FirstVisit(x); ok && math.IsInf(tv, 1) {
			overflowing++
		}
	}
	if overflowing == 0 {
		t.Fatalf("no robot's first visit to %g overflows; the case is not exercised", x)
	}
	if visits := p.FirstVisits(x); len(visits) != 0 {
		t.Errorf("FirstVisits(%g) = %v, want no visitor", x, visits)
	}
	if got := p.SearchTime(x); !math.IsInf(got, 1) {
		t.Errorf("SearchTime(%g) = %v, want +Inf", x, got)
	}
	if set := worstFaultAssignment(p, x); !slices.Equal(set, make(fault.Set, 2)) {
		t.Errorf("worst fault set at %g = %v, want no faulty robot", x, set)
	}
}

func TestWorstFaultSetMatchesSearchTime(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 5, 2)
	for _, x := range []float64{1, -1.5, 3.7, -42, 500} {
		faulty := worstFaultAssignment(p, x)
		count := 0
		for _, k := range faulty {
			if k == fault.Crash {
				count++
			}
		}
		if count != 2 {
			t.Errorf("x=%v: worst fault set has %d faults, want 2", x, count)
		}
		detect, err := detectionTime(p, x, faulty)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.AlmostEqual(detect, p.SearchTime(x), 1e-12) {
			t.Errorf("x=%v: detection %v under worst faults != search time %v", x, detect, p.SearchTime(x))
		}
	}
}

func TestRandomFaultsNeverWorseThanAdversary(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 5, 3)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		x := 1 + rng.Float64()*100
		if rng.Intn(2) == 0 {
			x = -x
		}
		faulty := make(fault.Set, 5)
		for _, i := range rng.Perm(5)[:3] {
			faulty[i] = fault.Crash
		}
		detect, err := detectionTime(p, x, faulty)
		if err != nil {
			t.Fatal(err)
		}
		if detect > p.SearchTime(x)+1e-9 {
			t.Fatalf("x=%v: random faults %v beat the adversary: %v > %v", x, faulty, detect, p.SearchTime(x))
		}
	}
}

func TestDetectionTimeNoFaults(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	visits := p.FirstVisits(2.5)
	detect, err := detectionTime(p, 2.5, make(fault.Set, 3))
	if err != nil {
		t.Fatal(err)
	}
	if detect != visits[0].T {
		t.Errorf("fault-free detection %v, want first visit %v", detect, visits[0].T)
	}
}

func TestDetectionTimeAllVisitorsFaulty(t *testing.T) {
	legs := []geom.Segment{{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: 4, T: 4}}}
	tr := trajectory.Must(legs, nil)
	ray := trajectory.Must(nil, trajectory.MustRay(geom.Point{X: 0, T: 0}, trajectory.Left))
	p, err := NewPlanModel([]*trajectory.Trajectory{tr, ray}, fault.CrashModel(1))
	if err != nil {
		t.Fatal(err)
	}
	// Only robot 0 reaches x = 3; make it faulty.
	detect, err := detectionTime(p, 3, fault.Set{fault.Crash, fault.Reliable})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(detect, 1) {
		t.Errorf("detection = %v, want +Inf when the only visitor is faulty", detect)
	}
}

func TestDetectionTimeRejectsBadFaultVector(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	if _, err := detectionTime(p, 1, fault.Set{fault.Crash}); err == nil {
		t.Error("short fault vector accepted")
	}
}

func TestRatioRejectsOrigin(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	if _, err := p.Ratio(0); err == nil {
		t.Error("ratio at origin accepted")
	}
}

func TestFromStrategyPropagatesBuildErrors(t *testing.T) {
	if _, err := FromStrategy(strategy.TwoGroup{}, 3, 1); err == nil {
		t.Error("invalid regime accepted")
	}
}

// TestFirstVisitsSingleRobot covers the n == 1 fast path: the single
// visit comes back as-is (no sort), and a never-visited target yields
// an empty list rather than a nil-deref or a spurious entry.
func TestFirstVisitsSingleRobot(t *testing.T) {
	tr := trajectory.Must(nil, trajectory.MustRay(geom.Point{X: 0, T: 0}, trajectory.Right))
	p, err := NewPlanModel([]*trajectory.Trajectory{tr}, fault.CrashModel(0))
	if err != nil {
		t.Fatal(err)
	}
	visits := p.FirstVisits(3)
	if len(visits) != 1 || visits[0].Robot != 0 || visits[0].T != 3 {
		t.Errorf("FirstVisits(3) = %v, want [{0 3}]", visits)
	}
	if got := p.FirstVisits(-1); len(got) != 0 {
		t.Errorf("FirstVisits(-1) = %v, want empty", got)
	}
}
