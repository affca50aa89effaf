package engine

import (
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

// ---------------------------------------------------------------------
// Differential parity: with unit speeds, p=0 and no delay faults, the
// engine must reproduce internal/sim and internal/compiled exactly.
// ---------------------------------------------------------------------

// diffCase is one generated differential case.
type diffCase struct {
	strat string
	n, f  int
}

func diffCases() []diffCase {
	return []diffCase{
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
		{"byzantine", 3, 1},
		{"byzantine", 5, 2},
		{"byzantine@2", 4, 1},
	}
}

func TestEngineMatchesSimAndCompiledDifferential(t *testing.T) {
	const perCase = 60 // 17 cases x 60 targets = 1020 comparisons
	rng := rand.New(rand.NewSource(7))
	total := 0
	for _, c := range diffCases() {
		st, err := strategy.Parse(c.strat)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.strat, err)
		}
		plan, err := sim.FromStrategy(st, c.n, c.f)
		if err != nil {
			t.Fatalf("FromStrategy(%s, %d, %d): %v", c.strat, c.n, c.f, err)
		}
		kernel, err := compiled.Compile(plan)
		if err != nil {
			t.Fatalf("Compile(%s): %v", c.strat, err)
		}
		for i := 0; i < perCase; i++ {
			x := math.Exp(rng.Float64() * math.Log(1e4))
			if rng.Intn(2) == 0 {
				x = -x
			}
			total++
			set := plan.WorstFaultAssignment(x)
			want, err := plan.DetectionTime(x, set)
			if err != nil {
				t.Fatalf("DetectionTime: %v", err)
			}
			eng, err := FromPlan(plan, set, Options{})
			if err != nil {
				t.Fatalf("FromPlan(%s): %v", c.strat, err)
			}
			res, err := eng.Search(x, NewStream(0))
			if err != nil {
				t.Fatalf("Search: %v", err)
			}
			if !closeTimes(res.DetectTime, want, 1e-9) {
				t.Fatalf("%s(%d,%d) x=%g: engine %v, sim %v",
					c.strat, c.n, c.f, x, res.DetectTime, want)
			}
			// Worst-case assignment detection == the plan's worst-case
			// search time == the compiled kernel's.
			if kt := kernel.SearchTime(x); !closeTimes(res.DetectTime, kt, 1e-9) {
				t.Fatalf("%s(%d,%d) x=%g: engine %v, compiled %v",
					c.strat, c.n, c.f, x, res.DetectTime, kt)
			}
		}
	}
	if total < 1000 {
		t.Fatalf("differential test covered only %d cases, want >= 1000", total)
	}
}

// closeTimes compares detection times at relative tolerance, treating
// equal infinities as equal.
func closeTimes(a, b, tol float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// ---------------------------------------------------------------------
// Engine semantics
// ---------------------------------------------------------------------

// zigzagFleet builds n copies of the shared doubling trajectory.
func zigzagFleet(t *testing.T, n int) []*trajectory.Trajectory {
	t.Helper()
	st, err := strategy.Parse("doubling")
	if err != nil {
		t.Fatal(err)
	}
	trajs, err := st.Build(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return trajs
}

func TestSpeedScalesDetectionTime(t *testing.T) {
	tr := zigzagFleet(t, 1)[0]
	base, ok := tr.FirstVisit(5)
	if !ok {
		t.Fatal("doubling trajectory misses x=5")
	}
	for _, speed := range []float64{0.5, 1, 2, 3.75} {
		eng, err := New([]RobotSpec{{Traj: tr, Speed: speed}}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Search(5, NewStream(0))
		if err != nil {
			t.Fatal(err)
		}
		if want := base / speed; math.Abs(res.DetectTime-want) > 1e-9*want {
			t.Errorf("speed %g: detect %g, want %g", speed, res.DetectTime, want)
		}
	}
}

func TestHeterogeneousSpeedsFastestWins(t *testing.T) {
	trajs := zigzagFleet(t, 2)
	eng, err := New([]RobotSpec{
		{Traj: trajs[0], Speed: 1},
		{Traj: trajs[1], Speed: 4},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := trajs[0].FirstVisit(9)
	res, err := eng.Search(9, NewStream(0))
	if err != nil {
		t.Fatal(err)
	}
	if want := base / 4; math.Abs(res.DetectTime-want) > 1e-9*want {
		t.Errorf("detect %g, want fastest robot's %g", res.DetectTime, want)
	}
}

func TestCrashFleetNeverDetects(t *testing.T) {
	trajs := zigzagFleet(t, 2)
	eng, err := New([]RobotSpec{
		{Traj: trajs[0], Kind: fault.Crash},
		{Traj: trajs[1], Kind: fault.ByzantineSilent},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Search(3, NewStream(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected || !math.IsInf(res.DetectTime, 1) {
		t.Fatalf("silent fleet detected: %+v", res)
	}
	if res.Truncated {
		t.Fatal("silent fleet should starve cleanly, not truncate")
	}
}

func TestDelayRobotClaimsLate(t *testing.T) {
	tr := zigzagFleet(t, 1)[0]
	fv, _ := tr.FirstVisit(5)
	eng, err := New([]RobotSpec{{Traj: tr, Kind: fault.Delay, Latency: 7.5}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Search(5, NewStream(0))
	if err != nil {
		t.Fatal(err)
	}
	if want := fv + 7.5; math.Abs(res.DetectTime-want) > 1e-9*want {
		t.Errorf("delay detect %g, want %g", res.DetectTime, want)
	}
}

func TestDelayJitterBoundedAndSeeded(t *testing.T) {
	tr := zigzagFleet(t, 1)[0]
	fv, _ := tr.FirstVisit(5)
	eng, err := New([]RobotSpec{{Traj: tr, Kind: fault.Delay, Latency: 2, Jitter: 3}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := eng.Search(5, NewStream(9))
	if err != nil {
		t.Fatal(err)
	}
	if res1.DetectTime < fv+2 || res1.DetectTime >= fv+5 {
		t.Errorf("jittered detect %g outside [%g, %g)", res1.DetectTime, fv+2, fv+5)
	}
	res2, _ := eng.Search(5, NewStream(9))
	if res1.DetectTime != res2.DetectTime {
		t.Error("same stream, different jitter draw")
	}
	res3, _ := eng.Search(5, NewStream(10))
	if res1.DetectTime == res3.DetectTime {
		t.Error("different seeds drew identical jitter (vanishingly unlikely)")
	}
}

func TestPFaultyZeroPBehavesReliable(t *testing.T) {
	tr := zigzagFleet(t, 1)[0]
	fv, _ := tr.FirstVisit(5)
	eng, err := New([]RobotSpec{{Traj: tr, Kind: fault.PFaulty, P: 0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Search(5, NewStream(0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DetectTime-fv) > 1e-9*fv {
		t.Errorf("p=0 detect %g, want first visit %g", res.DetectTime, fv)
	}
}

func TestPFaultyRetriesLaterVisits(t *testing.T) {
	// A single p-faulty robot on the one-sided half-line sweep: with a
	// fixed seed some visits fail, so detection lands on a later visit
	// of the stream — strictly after the first, still finite.
	tail := trajectory.MustHalfZigZag(geom.Point{X: 0, T: 0}, 1, 2)
	tr, err := trajectory.New(nil, tail)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New([]RobotSpec{{Traj: tr, Kind: fault.PFaulty, P: 0.9}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fv, _ := tr.FirstVisit(3)
	sawLater := false
	for seed := int64(0); seed < 20; seed++ {
		res, err := eng.Search(3, NewStream(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Detected {
			t.Fatalf("seed %d: high-p run truncated or starved: %+v", seed, res)
		}
		if res.DetectTime < fv-1e-12 {
			t.Fatalf("seed %d: detected before first visit", seed)
		}
		if res.DetectTime > fv+1e-9 {
			sawLater = true
		}
	}
	if !sawLater {
		t.Fatal("p=0.9 never failed a first visit over 20 seeds")
	}
}

func TestRunIsPureFunctionOfStream(t *testing.T) {
	tail := trajectory.MustHalfZigZag(geom.Point{X: 0, T: 0}, 1, 2)
	tr, err := trajectory.New(nil, tail)
	if err != nil {
		t.Fatal(err)
	}
	specs := []RobotSpec{
		{Traj: tr, Kind: fault.PFaulty, P: 0.6},
		{Traj: tr, Kind: fault.PFaulty, P: 0.3, Speed: 2},
		{Traj: tr, Kind: fault.Crash},
	}
	engA, err := New(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	engB, err := New(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		a, err := engA.Search(7, NewStream(seed))
		if err != nil {
			t.Fatal(err)
		}
		b, err := engB.Search(7, NewStream(seed))
		if err != nil {
			t.Fatal(err)
		}
		if a.DetectTime != b.DetectTime || a.Events != b.Events || a.Claims != b.Claims {
			t.Fatalf("seed %d: %+v != %+v", seed, a, b)
		}
	}
}

func TestVoteThresholdWaitsForSecondClaim(t *testing.T) {
	trajs := zigzagFleet(t, 3)
	eng, err := New([]RobotSpec{
		{Traj: trajs[0]},
		{Traj: trajs[1], Speed: 2},
		{Traj: trajs[2], Kind: fault.ByzantineLiar},
	}, Options{Votes: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Identical trajectories: the fast robot claims at t/2, the slow at
	// t; the liar's false claim must not count. Detection at the slower
	// truthful claim.
	base, _ := trajs[0].FirstVisit(4)
	res, err := eng.Search(4, NewStream(0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DetectTime-base) > 1e-9*base {
		t.Errorf("votes=2 detect %g, want second claim at %g", res.DetectTime, base)
	}
	if res.Claims != 2 {
		t.Errorf("claims = %d, want 2", res.Claims)
	}
}

func TestMaxEventsTruncates(t *testing.T) {
	tail := trajectory.MustHalfZigZag(geom.Point{X: 0, T: 0}, 1, 2)
	tr, err := trajectory.New(nil, tail)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New([]RobotSpec{{Traj: tr, Kind: fault.PFaulty, P: 0.999999}}, Options{MaxEvents: 50})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Search(3, NewStream(0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Detected {
		t.Fatalf("expected truncation, got %+v", res)
	}
}

func TestNewRejectsMalformedSpecs(t *testing.T) {
	tr := zigzagFleet(t, 1)[0]
	bad := []struct {
		name  string
		specs []RobotSpec
		opts  Options
	}{
		{"empty fleet", nil, Options{}},
		{"nil trajectory", []RobotSpec{{}}, Options{}},
		{"negative speed", []RobotSpec{{Traj: tr, Speed: -1}}, Options{}},
		{"nan speed", []RobotSpec{{Traj: tr, Speed: math.NaN()}}, Options{}},
		{"inf speed", []RobotSpec{{Traj: tr, Speed: math.Inf(1)}}, Options{}},
		{"p on reliable", []RobotSpec{{Traj: tr, P: 0.5}}, Options{}},
		{"p out of range", []RobotSpec{{Traj: tr, Kind: fault.PFaulty, P: 1}}, Options{}},
		{"negative p", []RobotSpec{{Traj: tr, Kind: fault.PFaulty, P: -0.25}}, Options{}},
		{"nan p", []RobotSpec{{Traj: tr, Kind: fault.PFaulty, P: math.NaN()}}, Options{}},
		{"latency on crash", []RobotSpec{{Traj: tr, Kind: fault.Crash, Latency: 1}}, Options{}},
		{"negative latency", []RobotSpec{{Traj: tr, Kind: fault.Delay, Latency: -1}}, Options{}},
		{"nan jitter", []RobotSpec{{Traj: tr, Kind: fault.Delay, Jitter: math.NaN()}}, Options{}},
		{"invalid kind", []RobotSpec{{Traj: tr, Kind: fault.Kind(99)}}, Options{}},
		{"votes over n", []RobotSpec{{Traj: tr}}, Options{Votes: 2}},
		{"negative votes", []RobotSpec{{Traj: tr}}, Options{Votes: -1}},
		{"negative max events", []RobotSpec{{Traj: tr}}, Options{MaxEvents: -5}},
	}
	for _, c := range bad {
		if _, err := New(c.specs, c.opts); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestDispatchAllocsPerEvent gates the scheduler's steady-state cost:
// averaged over a run, dispatching one event must allocate at most
// once (the target is ~0; the budget absorbs visit-stream refetches).
func TestDispatchAllocsPerEvent(t *testing.T) {
	trajs := zigzagFleet(t, 4)
	specs := make([]RobotSpec, 4)
	for i, tr := range trajs {
		specs[i] = RobotSpec{Traj: tr}
	}
	specs[3].Kind = fault.Crash
	eng, err := New(specs, Options{Votes: 2})
	if err != nil {
		t.Fatal(err)
	}
	stream := NewStream(0)
	res, err := eng.Search(5000, stream) // warm-up sizes the buffers
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 {
		t.Fatal("no events dispatched")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := eng.Search(5000, stream); err != nil {
			t.Fatal(err)
		}
	})
	perEvent := allocs / float64(res.Events)
	if perEvent > 1 {
		t.Fatalf("steady-state dispatch allocates %.2f/event (%.0f allocs over %d events), budget 1",
			perEvent, allocs, res.Events)
	}
	t.Logf("dispatch: %.0f allocs over %d events = %.3f allocs/event", allocs, res.Events, perEvent)
}
