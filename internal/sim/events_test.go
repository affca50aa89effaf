package sim

import (
	"math"
	"strings"
	"testing"

	"linesearch/internal/fault"
	"linesearch/internal/numeric"
	"linesearch/internal/strategy"
)

func TestTimelineBasicStructure(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	x := 2.0
	faulty := worstFaultAssignment(p, x)
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
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	x := -1.7
	faulty := worstFaultAssignment(p, x)
	want, err := detectionTime(p, x, faulty)
	if err != nil {
		t.Fatal(err)
	}
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
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
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
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
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
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
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
