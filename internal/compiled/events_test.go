package compiled

import (
	"math"
	"strings"
	"testing"

	"linesearch/internal/fault"
	"linesearch/internal/numeric"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
	"linesearch/internal/trajectory"
)

// compileSim builds st's plan for (n, f) in the exact engine and
// compiles its trajectories.
func compileSim(t testing.TB, st strategy.Strategy, n, f int) (*sim.Plan, *Plan) {
	t.Helper()
	sp, err := sim.FromStrategy(st, n, f)
	if err != nil {
		t.Fatalf("FromStrategy(%s, %d, %d): %v", st.Name(), n, f, err)
	}
	cp, err := Compile(sp)
	if err != nil {
		t.Fatal(err)
	}
	return sp, cp
}

// compileFleet compiles a hand-made fleet under fault model m.
func compileFleet(t testing.TB, trajs []*trajectory.Trajectory, m fault.Model) (*sim.Plan, *Plan) {
	t.Helper()
	sp, err := sim.NewPlanModel(trajs, m)
	if err != nil {
		t.Fatalf("NewPlanModel: %v", err)
	}
	cp, err := Compile(sp)
	if err != nil {
		t.Fatal(err)
	}
	return sp, cp
}

// detectionTime is the oracle of the detection event: over the exact
// engine's first visits, the VotesRequired-th by a robot that confirms
// under set, +Inf when fewer confirming robots visit x.
func detectionTime(p *sim.Plan, x float64, set fault.Set) float64 {
	votes := p.Model().VotesRequired()
	for _, v := range p.FirstVisits(x) {
		if set[v.Robot].Confirms() {
			if votes--; votes == 0 {
				return v.T
			}
		}
	}
	return math.Inf(1)
}

// worstFaultAssignment is the adversary's fault set against a target
// at x over the exact engine: the f distinct earliest visitors (ties
// broken by robot index), assigned the model's worst kind.
func worstFaultAssignment(p *sim.Plan, x float64) fault.Set {
	set := make(fault.Set, len(p.Trajectories()))
	visits := p.FirstVisits(x)
	for i := 0; i < len(visits) && i < p.Model().F; i++ {
		set[visits[i].Robot] = p.Model().WorstKind()
	}
	return set
}

func TestTimelineBasicStructure(t *testing.T) {
	sp, p := compileSim(t, strategy.Proportional{}, 3, 1)
	x := 2.0
	faulty := worstFaultAssignment(sp, x)
	events, err := p.Timeline(x, faulty, 100)
	if err != nil {
		t.Fatalf("Timeline: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty timeline")
	}

	var starts, turns, visits, detects int
	prev := math.Inf(-1)
	for _, e := range events {
		if e.T < prev {
			t.Fatalf("events out of order: %v", events)
		}
		prev = e.T
		switch e.Kind {
		case EventStart:
			starts++
		case EventTurn:
			turns++
		case EventVisit:
			visits++
			if e.X != x {
				t.Errorf("visit at %v, want %v", e.X, x)
			}
		case EventDetect:
			detects++
		}
	}
	if starts != 3 {
		t.Errorf("%d start events, want 3", starts)
	}
	if turns == 0 {
		t.Error("no turn events")
	}
	if visits == 0 {
		t.Error("no visit events")
	}
	if detects != 1 {
		t.Errorf("%d detect events, want 1", detects)
	}
}

func TestTimelineDetectMatchesDetectionTime(t *testing.T) {
	sp, p := compileSim(t, strategy.Proportional{}, 3, 1)
	x := -1.7
	faulty := worstFaultAssignment(sp, x)
	want := detectionTime(sp, x, faulty)
	events, err := p.Timeline(x, faulty, want+10)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, e := range events {
		if e.Kind == EventDetect {
			found = true
			if !numeric.AlmostEqual(e.T, want, 1e-12) {
				t.Errorf("detect at %v, want %v", e.T, want)
			}
			if faulty[e.Robot].Faulty() {
				t.Errorf("faulty robot %d credited with detection", e.Robot)
			}
		}
	}
	if !found {
		t.Error("no detect event within horizon")
	}
}

func TestTimelineNoDetectBeyondHorizon(t *testing.T) {
	_, p := compileSim(t, strategy.Proportional{}, 3, 1)
	x := 100.0
	events, err := p.Timeline(x, make(fault.Set, 3), 5) // horizon too short
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Kind == EventDetect || e.Kind == EventVisit {
			t.Errorf("unexpected %v event at t=%v within horizon 5", e.Kind, e.T)
		}
	}
}

func TestTimelineValidation(t *testing.T) {
	_, p := compileSim(t, strategy.Proportional{}, 3, 1)
	if _, err := p.Timeline(1, fault.Set{fault.Crash}, 10); err == nil {
		t.Error("short fault assignment accepted")
	}
	if _, err := p.Timeline(1, make(fault.Set, 3), -1); err == nil {
		t.Error("negative horizon accepted")
	}
}

func TestTimelineWaitingRobotsStartLate(t *testing.T) {
	// In A(3,1) robots depart the origin at (beta-1)*|tau'_i|; starts
	// must carry those staggered times, all at x = 0.
	_, p := compileSim(t, strategy.Proportional{}, 3, 1)
	events, err := p.Timeline(50, make(fault.Set, 3), 10)
	if err != nil {
		t.Fatal(err)
	}
	startTimes := map[int]float64{}
	for _, e := range events {
		if e.Kind == EventStart {
			startTimes[e.Robot] = e.T
			if e.X != 0 {
				t.Errorf("robot %d starts at x=%v, want 0", e.Robot, e.X)
			}
		}
	}
	if len(startTimes) != 3 {
		t.Fatalf("starts for %d robots, want 3", len(startTimes))
	}
	distinct := map[float64]bool{}
	for _, st := range startTimes {
		distinct[st] = true
	}
	if len(distinct) < 2 {
		t.Error("expected staggered departure times")
	}
}

func TestByzantineTimelineShowsLies(t *testing.T) {
	trajs, err := strategy.Proportional{}.Build(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The Byzantine rule at f = 1 over A(5, 2)'s trajectories, which
	// its default votes need.
	sp, p := compileFleet(t, trajs, fault.ByzantineModel(1, 0))
	x := 3.0
	// Assignment: earliest visitor silent, second-earliest a liar.
	visits := sp.FirstVisits(x)
	set := make(fault.Set, p.N())
	set[visits[0].Robot] = fault.ByzantineSilent
	liar := visits[1].Robot
	set[liar] = fault.ByzantineLiar

	detect := detectionTime(sp, x, set)
	events, err := p.Timeline(x, set, detect+20)
	if err != nil {
		t.Fatal(err)
	}

	var claims, falseClaims, detects int
	var detectT float64
	claimedBy := map[int]bool{}
	for _, e := range events {
		switch e.Kind {
		case EventClaim:
			claims++
			claimedBy[e.Robot] = true
			if e.X != x {
				t.Errorf("claim at %v, want %v", e.X, x)
			}
			if set[e.Robot].Faulty() {
				t.Errorf("faulty robot %d issued a truthful claim", e.Robot)
			}
		case EventFalseClaim:
			falseClaims++
			if e.Robot != liar {
				t.Errorf("false claim by robot %d, want liar %d", e.Robot, liar)
			}
			if e.X != -x {
				t.Errorf("false claim at %v, want mirror %v", e.X, -x)
			}
		case EventDetect:
			detects++
			detectT = e.T
		}
	}
	if detects != 1 {
		t.Fatalf("%d detect events, want 1", detects)
	}
	if !numeric.AlmostEqual(detectT, detect, 1e-12) {
		t.Errorf("detect at %v, want %v", detectT, detect)
	}
	// The vote needs 2 truthful claims before (or at) detection; the
	// timeline horizon extends past it, so at least 2 claims appear.
	if claims < 2 {
		t.Errorf("%d truthful claims, want >= 2", claims)
	}
	if falseClaims != 1 {
		t.Errorf("%d false claims, want 1 (liar visits the mirror)", falseClaims)
	}
}

func TestCrashTimelineHasNoClaimEvents(t *testing.T) {
	sp, p := compileSim(t, strategy.Proportional{}, 3, 1)
	events, err := p.Timeline(2, worstFaultAssignment(sp, 2), 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Kind == EventClaim || e.Kind == EventFalseClaim {
			t.Fatalf("crash timeline contains %v event", e.Kind)
		}
	}
}

func TestEventKindString(t *testing.T) {
	for _, k := range []EventKind{EventStart, EventTurn, EventVisit, EventDetect} {
		if strings.HasPrefix(k.String(), "EventKind(") {
			t.Errorf("kind %d has no label", k)
		}
	}
	if EventKind(42).String() != "EventKind(42)" {
		t.Errorf("unknown kind: %v", EventKind(42))
	}
}

func TestEventString(t *testing.T) {
	e := Event{T: 1.5, Robot: 2, Kind: EventVisit, X: -3}
	s := e.String()
	for _, want := range []string{"robot 2", "visit", "-3"} {
		if !strings.Contains(s, want) {
			t.Errorf("Event.String() = %q missing %q", s, want)
		}
	}
}
