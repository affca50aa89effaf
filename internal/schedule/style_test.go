package schedule

import (
	"math"
	"testing"

	"linesearch/internal/numeric"
	"linesearch/internal/trajectory"
)

func TestStartupStyleString(t *testing.T) {
	if StartupWait.String() != "wait" || StartupSlow.String() != "slow" {
		t.Errorf("labels: %v, %v", StartupWait, StartupSlow)
	}
	if StartupStyle(9).String() != "StartupStyle(9)" {
		t.Errorf("unknown style: %v", StartupStyle(9))
	}
}

func TestNewStyledRejectsUnknownStyle(t *testing.T) {
	if _, err := NewStyled(3, 1, 5.0/3, 1, StartupStyle(0)); err == nil {
		t.Error("unknown style accepted")
	}
}

// TestSlowStartMatchesWaitFromTheBoundary: the two startup styles agree
// at and after each robot's first cone turning point — they are
// alternative realisations of the same schedule (the paper's Section 1
// remark about speeds vs start times).
func TestSlowStartMatchesWaitFromTheBoundary(t *testing.T) {
	const n, f = 5, 3
	wait, err := NewStyled(n, f, 2.2, 1, StartupWait)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewStyled(n, f, 2.2, 1, StartupSlow)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		wt := wait.Trajectories()[i]
		st := slow.Trajectories()[i]
		anchorTime := wt.TailOf().Anchor().T
		if got := st.TailOf().Anchor(); got != wt.TailOf().Anchor() {
			t.Fatalf("robot %d: anchors differ: %v vs %v", i, got, wt.TailOf().Anchor())
		}
		for _, tt := range numeric.Linspace(anchorTime, anchorTime+50, 64) {
			a, err := trajectory.PositionAt(wt.Legs(), wt.TailOf(), tt)
			if err != nil {
				t.Fatal(err)
			}
			b, err := trajectory.PositionAt(st.Legs(), st.TailOf(), tt)
			if err != nil {
				t.Fatal(err)
			}
			if !numeric.AlmostEqual(a, b, 1e-9) {
				t.Errorf("robot %d t=%v: wait %v vs slow %v", i, tt, a, b)
			}
		}
	}
}

// TestSlowStartMovesAtReducedSpeed: before the anchor the slow-start
// robot is strictly between the origin and the waiting robot's position
// profile, moving at constant speed 1/beta.
func TestSlowStartMovesAtReducedSpeed(t *testing.T) {
	const beta = 2.0
	s, err := NewStyled(3, 2, beta, 1, StartupSlow)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Trajectories()[0] // anchors at +1, time beta
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		tt := frac * beta
		x, err := trajectory.PositionAt(tr.Legs(), tr.TailOf(), tt)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.AlmostEqual(x, tt/beta, 1e-9) {
			t.Errorf("t=%v: x=%v, want %v (speed 1/beta)", tt, x, tt/beta)
		}
	}
	// Single prefix leg: no waiting.
	if n := len(tr.Legs()); n != 1 {
		t.Fatalf("slow start has %d prefix legs, want 1", n)
	}
	if v := tr.Legs()[0].Speed(); v >= 1 {
		t.Errorf("slow start speed %v, want < 1", v)
	}
}

// TestSlowStartPreservesCompetitiveRatio: both realisations have the
// same detection times for every target at distance >= 1 — the prefix
// difference only affects |x| < 1.
func TestSlowStartPreservesCompetitiveRatio(t *testing.T) {
	wait, err := NewStyled(3, 1, 5.0/3, 1, StartupWait)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewStyled(3, 1, 5.0/3, 1, StartupSlow)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, -1.4, 2.7, -8, 100} {
		for i := 0; i < 3; i++ {
			a, okA := wait.Trajectories()[i].FirstVisit(x)
			b, okB := slow.Trajectories()[i].FirstVisit(x)
			if okA != okB {
				t.Fatalf("robot %d x=%v: visit existence differs", i, x)
			}
			if math.Abs(a-b) > 1e-9 {
				t.Errorf("robot %d x=%v: first visits differ: %v vs %v", i, x, a, b)
			}
		}
	}
}

// TestSlowStartTailIsZigZag: structural sanity of the alternative
// realisation.
func TestSlowStartTailIsZigZag(t *testing.T) {
	s, err := NewStyled(11, 5, 13.0/11, 1, StartupSlow)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range s.Trajectories() {
		if err := tr.Validate(); err != nil {
			t.Errorf("robot %d: %v", i, err)
		}
		if _, ok := tr.TailOf().(*trajectory.ZigZag); !ok {
			t.Errorf("robot %d tail is %T", i, tr.TailOf())
		}
	}
}
