package trajectory

import (
	"math"
	"testing"
	"testing/quick"

	"linesearch/internal/geom"
	"linesearch/internal/numeric"
)

// startupLegs builds the Definition-4 style prefix: wait at the origin,
// then move at unit speed to reach boundary point (x, beta*|x|).
func startupLegs(beta, x float64) []geom.Segment {
	depart := (beta - 1) * math.Abs(x)
	return []geom.Segment{
		{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: 0, T: depart}},
		{From: geom.Point{X: 0, T: depart}, To: geom.Point{X: x, T: beta * math.Abs(x)}},
	}
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("empty trajectory accepted")
	}
}

func TestNewRejectsDiscontiguousLegs(t *testing.T) {
	legs := []geom.Segment{
		{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: 1, T: 1}},
		{From: geom.Point{X: 2, T: 1}, To: geom.Point{X: 3, T: 2}}, // gap in position
	}
	if _, err := New(legs, nil); err == nil {
		t.Error("discontiguous legs accepted")
	}
}

func TestNewRejectsNegativeStart(t *testing.T) {
	legs := []geom.Segment{{From: geom.Point{X: 0, T: -1}, To: geom.Point{X: 1, T: 0}}}
	if _, err := New(legs, nil); err == nil {
		t.Error("negative start time accepted")
	}
}

func TestNewRejectsMisanchoredTail(t *testing.T) {
	cone := geom.MustCone(3)
	legs := []geom.Segment{{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: 1, T: 1}}}
	tail := MustZigZag(cone, cone.BoundaryPoint(2)) // anchored at (2, 6), not (1, 1)
	if _, err := New(legs, tail); err == nil {
		t.Error("misanchored tail accepted")
	}
}

func TestNewRejectsSuperluminalLeg(t *testing.T) {
	legs := []geom.Segment{{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: 5, T: 1}}}
	if _, err := New(legs, nil); err == nil {
		t.Error("speed > 1 leg accepted")
	}
}

func TestTrajectoryWithStartupAndZigZag(t *testing.T) {
	const beta = 3.0
	cone := geom.MustCone(beta)
	legs := startupLegs(beta, 1)
	tail := MustZigZag(cone, cone.BoundaryPoint(1))
	tr, err := New(legs, tail)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	if got := tr.legs[0].From; got != (geom.Point{X: 0, T: 0}) {
		t.Errorf("Start = %v, want origin", got)
	}

	tests := []struct {
		t, want float64
	}{
		{0, 0}, // waiting
		{1, 0}, // still waiting (departure at t = 2)
		{2, 0}, // departure instant
		{2.5, 0.5},
		{3, 1},  // reached the boundary anchor
		{4, 0},  // zig-zag heading left
		{6, -2}, // first turn
	}
	for _, tt := range tests {
		got, err := PositionAt(tr.Legs(), tr.TailOf(), tt.t)
		if err != nil {
			t.Fatalf("PositionAt(%v): %v", tt.t, err)
		}
		if !numeric.AlmostEqual(got, tt.want, 1e-9) {
			t.Errorf("PositionAt(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

func TestTrajectoryFirstVisitPrefersLegs(t *testing.T) {
	const beta = 3.0
	cone := geom.MustCone(beta)
	tr := Must(startupLegs(beta, 1), MustZigZag(cone, cone.BoundaryPoint(1)))

	// x = 0.5 is first visited on the start-up leg at t = 2.5, long
	// before the zig-zag sweeps back over it.
	got, ok := tr.FirstVisit(0.5)
	if !ok || !numeric.AlmostEqual(got, 2.5, 1e-9) {
		t.Errorf("FirstVisit(0.5) = %v, %v; want 2.5, true", got, ok)
	}

	// x = 0 is visited at t = 0 (the robot waits there).
	got, ok = tr.FirstVisit(0)
	if !ok || got != 0 {
		t.Errorf("FirstVisit(0) = %v, %v; want 0, true", got, ok)
	}

	// x = -1 is only reached by the zig-zag: from (1,3) heading left.
	got, ok = tr.FirstVisit(-1)
	if !ok || !numeric.AlmostEqual(got, 5, 1e-9) {
		t.Errorf("FirstVisit(-1) = %v, %v; want 5, true", got, ok)
	}
}

func TestFiniteTrajectoryHalts(t *testing.T) {
	legs := []geom.Segment{{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: 4, T: 4}}}
	tr := Must(legs, nil)
	got, err := PositionAt(tr.Legs(), tr.TailOf(), 100)
	if err != nil || got != 4 {
		t.Errorf("PositionAt(100) = %v, %v; want 4, nil", got, err)
	}
	if _, ok := tr.FirstVisit(5); ok {
		t.Error("finite trajectory claims to visit unreached position")
	}
	if v, ok := tr.FirstVisit(3); !ok || !numeric.AlmostEqual(v, 3, 1e-9) {
		t.Errorf("FirstVisit(3) = %v, %v; want 3, true", v, ok)
	}
}

func TestHaltTailExtendsFiniteTrajectory(t *testing.T) {
	legs := []geom.Segment{{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: 4, T: 4}}}
	tail, err := NewHalt(geom.Point{X: 4, T: 4})
	if err != nil {
		t.Fatalf("NewHalt: %v", err)
	}
	tr := Must(legs, tail)
	if got, _ := PositionAt(tr.Legs(), tr.TailOf(), 1e6); got != 4 {
		t.Errorf("PositionAt(1e6) = %v, want 4", got)
	}
	vs := VisitsUntil(tr.Legs(), tr.TailOf(), 4, 100)
	if len(vs) != 1 || vs[0] != 4 {
		t.Errorf("VisitsUntil(4, 100) = %v, want [4]", vs)
	}
	segs := tr.SegmentsUntil(10)
	if len(segs) != 2 {
		t.Fatalf("SegmentsUntil(10): %d segments, want 2", len(segs))
	}
}

func TestVisitsUntilDedupesLegJunction(t *testing.T) {
	// Two legs meeting at x = 2, t = 2 (a turning point): the shared
	// instant must be reported once.
	legs := []geom.Segment{
		{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: 2, T: 2}},
		{From: geom.Point{X: 2, T: 2}, To: geom.Point{X: -1, T: 5}},
	}
	tr := Must(legs, nil)
	vs := VisitsUntil(tr.Legs(), tr.TailOf(), 2, 10)
	if len(vs) != 1 || vs[0] != 2 {
		t.Errorf("VisitsUntil(2, 10) = %v, want [2]", vs)
	}
}

func TestFirstVisitMatchesMinVisit(t *testing.T) {
	const beta = 5.0 / 3
	cone := geom.MustCone(beta)
	tr := Must(startupLegs(beta, 1), MustZigZag(cone, cone.BoundaryPoint(1)))
	f := func(xRaw float64) bool {
		if math.IsNaN(xRaw) {
			return true
		}
		x := math.Mod(xRaw, 50)
		first, ok := tr.FirstVisit(x)
		if !ok {
			return false // this trajectory eventually visits everything
		}
		vs := VisitsUntil(tr.Legs(), tr.TailOf(), x, first+1)
		return len(vs) > 0 && numeric.AlmostEqual(vs[0], first, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentsUntilContiguousAndValid(t *testing.T) {
	const beta = 2.0
	cone := geom.MustCone(beta)
	tr := Must(startupLegs(beta, -1), MustZigZag(cone, cone.BoundaryPoint(-1)))
	segs := tr.SegmentsUntil(1000)
	if len(segs) < 5 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	for i, s := range segs {
		if err := s.Validate(); err != nil {
			t.Errorf("segment %d: %v", i, err)
		}
		if i == 0 {
			continue
		}
		prev := segs[i-1].To
		if !numeric.AlmostEqual(prev.X, s.From.X, 1e-9) || !numeric.AlmostEqual(prev.T, s.From.T, 1e-9) {
			t.Errorf("segment %d not contiguous: %v vs %v", i, prev, s.From)
		}
	}
}

// TestLegReadsOwnCopy checks Legs reads the legs New was
// given, and that New keeps its own copy of them.
func TestLegReadsOwnCopy(t *testing.T) {
	legs := []geom.Segment{
		{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: 1, T: 1}},
		{From: geom.Point{X: 1, T: 1}, To: geom.Point{X: -1, T: 3}},
	}
	tr := Must(legs, nil)
	legs[0].To.X = 99
	if n := len(tr.Legs()); n != 2 {
		t.Fatalf("len(Legs()) = %d, want 2", n)
	}
	if got := tr.Legs()[0].To.X; got != 1 {
		t.Errorf("Legs()[0].To.X = %v after the caller's slice changed, want 1", got)
	}
	if got := tr.Legs()[1]; got != legs[1] {
		t.Errorf("Legs()[1] = %v, want %v", got, legs[1])
	}
}

func TestRayTrajectory(t *testing.T) {
	tail := MustRay(geom.Point{X: 0, T: 0}, Right)
	tr := Must(nil, tail)
	if got, _ := PositionAt(tr.Legs(), tr.TailOf(), 7); got != 7 {
		t.Errorf("PositionAt(7) = %v, want 7", got)
	}
	if v, ok := tr.FirstVisit(3); !ok || v != 3 {
		t.Errorf("FirstVisit(3) = %v, %v", v, ok)
	}
	if _, ok := tr.FirstVisit(-1); ok {
		t.Error("right ray claims to visit -1")
	}
}

func TestRayValidation(t *testing.T) {
	if _, err := NewRay(geom.Point{X: 0, T: 0}, Direction(0)); err == nil {
		t.Error("zero direction accepted")
	}
	if _, err := NewRay(geom.Point{X: 0, T: -1}, Right); err == nil {
		t.Error("negative anchor time accepted")
	}
	if Right.String() != "right" || Left.String() != "left" {
		t.Errorf("direction strings: %v, %v", Right, Left)
	}
}

func TestRayLeftSweep(t *testing.T) {
	r := MustRay(geom.Point{X: 0, T: 2}, Left)
	if v, ok := r.FirstVisit(-5); !ok || v != 7 {
		t.Errorf("FirstVisit(-5) = %v, %v; want 7, true", v, ok)
	}
	if vs := r.VisitsUntil(-5, 6.9); vs != nil {
		t.Errorf("VisitsUntil before arrival = %v, want nil", vs)
	}
	segs := r.SegmentsUntil(10)
	if len(segs) != 1 || segs[0].To.X != -8 {
		t.Errorf("SegmentsUntil(10) = %v", segs)
	}
	if segs := r.SegmentsUntil(1); segs != nil {
		t.Errorf("SegmentsUntil before anchor = %v, want nil", segs)
	}
}

func TestHaltValidation(t *testing.T) {
	if _, err := NewHalt(geom.Point{X: 0, T: -1}); err == nil {
		t.Error("negative halt time accepted")
	}
	h, err := NewHalt(geom.Point{X: 2, T: 5})
	if err != nil {
		t.Fatalf("NewHalt: %v", err)
	}
	if _, err := h.PositionAt(4); err == nil {
		t.Error("PositionAt before anchor accepted")
	}
	if _, ok := h.FirstVisit(3); ok {
		t.Error("halt claims to visit another position")
	}
}
