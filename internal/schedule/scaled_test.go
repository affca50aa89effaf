package schedule

import (
	"math"
	"testing"

	"linesearch/internal/numeric"
	"linesearch/internal/trajectory"
)

func TestNewScaledValidation(t *testing.T) {
	if _, err := NewScaled(3, 1, 5.0/3, 0); err == nil {
		t.Error("dmin = 0 accepted")
	}
	if _, err := NewScaled(3, 1, 5.0/3, -2); err == nil {
		t.Error("negative dmin accepted")
	}
	if _, err := NewScaled(3, 1, 5.0/3, math.Inf(1)); err == nil {
		t.Error("infinite dmin accepted")
	}
}

func TestNewScaledDefaultsMatchNew(t *testing.T) {
	a, err := New(3, 1, 5.0/3)
	if err != nil {
		t.Fatal(err)
	}
	if a.dmin != 1 {
		t.Errorf("MinDistance = %v, want 1", a.dmin)
	}
}

// TestScaledScheduleIsExactDilation: scaling the minimal distance by c
// dilates every trajectory by c in both space and time (unit speed is
// scale-free), so positions satisfy pos_c(c*t) = c * pos_1(t).
func TestScaledScheduleIsExactDilation(t *testing.T) {
	const c = 7.5
	base, err := NewOptimal(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := NewScaled(5, 3, base.Beta(), c)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.dmin != c {
		t.Fatalf("MinDistance = %v", scaled.dmin)
	}
	for i := range base.Trajectories() {
		bt := base.Trajectories()[i]
		st := scaled.Trajectories()[i]
		for _, tt := range numeric.Linspace(0, 200, 101) {
			want, err := trajectory.PositionAt(bt.Legs(), bt.TailOf(), tt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := trajectory.PositionAt(st.Legs(), st.TailOf(), c*tt)
			if err != nil {
				t.Fatal(err)
			}
			if !numeric.AlmostEqual(got, c*want, 1e-8) {
				t.Errorf("robot %d: pos_c(%v) = %v, want %v", i, c*tt, got, c*want)
			}
		}
	}
}

// TestScaledAnchorBelowMinDistance: Definition 4's backward extension
// must stop strictly below the scaled minimal distance.
func TestScaledAnchorBelowMinDistance(t *testing.T) {
	const dmin = 100.0
	s, err := NewScaled(11, 5, 13.0/11, dmin)
	if err != nil {
		t.Fatal(err)
	}
	trajs := s.Trajectories()
	a0 := trajs[0].TailOf().(*trajectory.ZigZag).Anchor()
	if !numeric.AlmostEqual(a0.X, dmin, 1e-9) {
		t.Errorf("robot 0 anchors at %v, want %v", a0.X, dmin)
	}
	for i, tr := range trajs[1:] {
		if a := tr.TailOf().Anchor(); math.Abs(a.X) >= dmin {
			t.Errorf("robot %d anchor |x| = %v, want < %v", i+1, math.Abs(a.X), dmin)
		}
	}
}

func TestScaledTurningPointAccessor(t *testing.T) {
	const dmin = 3.0
	s, err := NewScaled(3, 1, 5.0/3, dmin)
	if err != nil {
		t.Fatal(err)
	}
	p0, robot := s.TurningPoint(0)
	if !numeric.AlmostEqual(p0.X, dmin, 1e-12) || robot != 0 {
		t.Errorf("TurningPoint(0) = %v (robot %d), want x = %v (robot 0)", p0, robot, dmin)
	}
	p3, _ := s.TurningPoint(3)
	if !numeric.AlmostEqual(p3.X/p0.X, math.Pow(s.Ratio(), 3), 1e-9) {
		t.Errorf("turning point growth wrong: %v / %v", p3.X, p0.X)
	}
}
