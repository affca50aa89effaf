package sim

import (
	"math"
	"testing"

	"linesearch/internal/fault"
	"linesearch/internal/numeric"
	"linesearch/internal/strategy"
)

// byzantinePlan builds a plan over the trajectories of st(n, fBuild)
// evaluated under the Byzantine model with budget f and default votes.
// fBuild is the crash budget the schedule was constructed for; a sound
// Byzantine evaluation needs fBuild = rank-1 = 2f at default votes.
func byzantinePlan(t *testing.T, st strategy.Strategy, n, fBuild, f int) *Plan {
	t.Helper()
	trajs, err := st.Build(n, fBuild)
	if err != nil {
		t.Fatalf("building %s(%d, %d): %v", st.Name(), n, fBuild, err)
	}
	p, err := NewPlanModel(trajs, fault.ByzantineModel(f, 0))
	if err != nil {
		t.Fatalf("NewPlanModel: %v", err)
	}
	return p
}

func TestByzantineSearchTimeIsRankVisit(t *testing.T) {
	// n=5, f=1 Byzantine: rank 3, so SearchTime must equal the third
	// distinct visit — the crash plan over the same trajectories at
	// budget 2.
	p := byzantinePlan(t, strategy.Proportional{}, 5, 2, 1)
	if got := p.Model().DetectionRank(); got != 3 {
		t.Fatalf("DetectionRank = %d, want 3", got)
	}
	crash, err := NewPlanModel(p.Trajectories(), fault.CrashModel(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, -1.5, 3.7, -42, 500} {
		want, err := p.KthDistinctVisit(x, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.SearchTime(x); got != want {
			t.Errorf("x=%v: SearchTime = %v, want 3rd visit %v", x, got, want)
		}
		if got, want := p.SearchTime(x), crash.SearchTime(x); got != want {
			t.Errorf("x=%v: byzantine f=1 (%v) != crash f=2 (%v)", x, got, want)
		}
	}
}

// TestVoteRuleMatchesExhaustiveAdversary is the voting rule's
// correctness anchor: the closed-form worst case (the rank-th distinct
// visit) must equal the maximum detection time over EVERY fault
// assignment the Byzantine adversary can choose — all subsets of at
// most f robots, every silent/liar kind combination.
func TestVoteRuleMatchesExhaustiveAdversary(t *testing.T) {
	cases := []struct {
		n, fBuild, f int
	}{
		{3, 2, 1},
		{5, 2, 1},
		{5, 4, 2},
		{7, 4, 2},
	}
	for _, tc := range cases {
		p := byzantinePlan(t, strategy.Proportional{}, tc.n, tc.fBuild, tc.f)
		sets, err := fault.EnumerateSets(tc.n, p.Model())
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []float64{1, -2.3, 5, -11, 60} {
			worst := math.Inf(-1)
			var argSet fault.Set
			for _, set := range sets {
				detect, err := detectionTime(p, x, set)
				if err != nil {
					t.Fatal(err)
				}
				if detect > worst {
					worst = detect
					argSet = set
				}
			}
			if got := p.SearchTime(x); !numeric.AlmostEqual(got, worst, 1e-12) {
				t.Errorf("n=%d f=%d x=%v: SearchTime %v != exhaustive worst %v (set %v)",
					tc.n, tc.f, x, got, worst, argSet)
			}
			// The canonical worst assignment must attain the supremum too.
			detect, err := detectionTime(p, x, worstFaultAssignment(p, x))
			if err != nil {
				t.Fatal(err)
			}
			if !numeric.AlmostEqual(detect, worst, 1e-12) {
				t.Errorf("n=%d f=%d x=%v: WorstFaultAssignment attains %v, exhaustive worst %v",
					tc.n, tc.f, x, detect, worst)
			}
		}
	}
}

func TestCrashVoteRuleMatchesExhaustiveAdversary(t *testing.T) {
	// The same certification for the crash model: SearchTime must be
	// the maximum of DetectionTime over every crash assignment.
	p := mustPlan(t, strategy.Proportional{}, 4, 2)
	sets, err := fault.EnumerateSets(4, p.Model())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, -3.2, 17} {
		worst := math.Inf(-1)
		for _, set := range sets {
			detect, err := detectionTime(p, x, set)
			if err != nil {
				t.Fatal(err)
			}
			worst = math.Max(worst, detect)
		}
		if got := p.SearchTime(x); !numeric.AlmostEqual(got, worst, 1e-12) {
			t.Errorf("x=%v: crash SearchTime %v != exhaustive worst %v", x, got, worst)
		}
	}
}

func TestByzantineLiarsCannotAccelerateDetection(t *testing.T) {
	// Flipping worst-case silent robots to liars must not change the
	// detection time: lies never count toward the vote on the true
	// target.
	p := byzantinePlan(t, strategy.Proportional{}, 5, 2, 1)
	for _, x := range []float64{2, -7.5} {
		silent := worstFaultAssignment(p, x)
		liars := silent.Clone()
		for i, k := range liars {
			if k == fault.ByzantineSilent {
				liars[i] = fault.ByzantineLiar
			}
		}
		a, err := detectionTime(p, x, silent)
		if err != nil {
			t.Fatal(err)
		}
		b, err := detectionTime(p, x, liars)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("x=%v: silent %v != liar %v", x, a, b)
		}
	}
}

func TestNewPlanModelRejectsInfeasibleModels(t *testing.T) {
	trajs, err := strategy.Proportional{}.Build(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 2f+1 = 5 exceeds n = 3.
	if _, err := NewPlanModel(trajs, fault.ByzantineModel(2, 0)); err == nil {
		t.Error("byzantine f=2 on n=3 accepted")
	}
	if _, err := NewPlanModel(trajs, fault.ByzantineModel(1, -1)); err == nil {
		t.Error("negative votes accepted")
	}
}

func TestFromStrategyUsesModeller(t *testing.T) {
	// A Byzantine strategy declares its fault model via sim.Modeller;
	// FromStrategy must evaluate the plan under it.
	p, err := FromStrategy(strategy.Byzantine{}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Model().Kind != fault.ModelByzantine || p.model.F != 1 || p.Model().DetectionRank() != 3 {
		t.Errorf("FromStrategy(byzantine, 5, 1) model = %s", p.Model())
	}
	// And the reduction holds end to end: the Byzantine plan's worst
	// case equals the crash base at budget 2 over the same schedule.
	crash, err := FromStrategy(strategy.Proportional{}, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1.5, -8, 33} {
		if got, want := p.SearchTime(x), crash.SearchTime(x); got != want {
			t.Errorf("x=%v: byzantine %v != crash-base %v", x, got, want)
		}
	}
}

func TestWithFaultBudgetPreservesModelFamily(t *testing.T) {
	p := byzantinePlan(t, strategy.Proportional{}, 7, 4, 2)
	q, err := p.WithFaultBudget(1)
	if err != nil {
		t.Fatal(err)
	}
	if q.Model().Kind != fault.ModelByzantine || q.model.F != 1 || q.Model().DetectionRank() != 3 {
		t.Errorf("WithFaultBudget drifted: %s", q.Model())
	}
}
