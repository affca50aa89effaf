package geom

import (
	"math"
	"testing"
	"testing/quick"

	"linesearch/internal/numeric"
)

func TestSegmentDurationDisplacementSpeed(t *testing.T) {
	s := Segment{From: Point{X: 1, T: 2}, To: Point{X: -2, T: 5}}
	if got := s.Duration(); got != 3 {
		t.Errorf("Duration = %v, want 3", got)
	}
	if got := s.Displacement(); got != -3 {
		t.Errorf("Displacement = %v, want -3", got)
	}
	if got := s.Speed(); got != 1 {
		t.Errorf("Speed = %v, want 1", got)
	}
}

func TestSegmentSpeedOfWait(t *testing.T) {
	s := Segment{From: Point{X: 4, T: 0}, To: Point{X: 4, T: 10}}
	if got := s.Speed(); got != 0 {
		t.Errorf("Speed = %v, want 0", got)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSegmentValidate(t *testing.T) {
	tests := []struct {
		name    string
		seg     Segment
		wantErr bool
	}{
		{"unit speed right", Segment{Point{0, 0}, Point{5, 5}}, false},
		{"unit speed left", Segment{Point{0, 0}, Point{-5, 5}}, false},
		{"slower than unit", Segment{Point{0, 0}, Point{2, 5}}, false},
		{"waiting", Segment{Point{3, 1}, Point{3, 9}}, false},
		{"instantaneous no move", Segment{Point{3, 1}, Point{3, 1}}, false},
		{"too fast", Segment{Point{0, 0}, Point{5, 3}}, true},
		{"teleport", Segment{Point{0, 0}, Point{5, 0}}, true},
		{"time reversal", Segment{Point{0, 5}, Point{1, 3}}, true},
		{"nan position", Segment{Point{math.NaN(), 0}, Point{1, 2}}, true},
		{"barely over unit speed absorbed", Segment{Point{0, 0}, Point{1 + 1e-12, 1}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.seg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSegmentPositionAt(t *testing.T) {
	s := Segment{From: Point{X: -1, T: 2}, To: Point{X: 3, T: 6}}
	tests := []struct {
		t, want float64
	}{
		{2, -1}, {6, 3}, {4, 1}, {3, 0},
	}
	for _, tt := range tests {
		got, err := s.PositionAt(tt.t)
		if err != nil {
			t.Fatalf("PositionAt(%v): %v", tt.t, err)
		}
		if !numeric.AlmostEqual(got, tt.want, 1e-9) {
			t.Errorf("PositionAt(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
	if _, err := s.PositionAt(1.9); err == nil {
		t.Error("expected error before segment start")
	}
	if _, err := s.PositionAt(6.1); err == nil {
		t.Error("expected error after segment end")
	}
}

func TestSegmentPositionAtInstantaneous(t *testing.T) {
	s := Segment{From: Point{X: 7, T: 3}, To: Point{X: 7, T: 3}}
	got, err := s.PositionAt(3)
	if err != nil || got != 7 {
		t.Errorf("PositionAt(3) = %v, %v; want 7, nil", got, err)
	}
}

func TestSegmentFirstVisit(t *testing.T) {
	s := Segment{From: Point{X: 0, T: 0}, To: Point{X: 4, T: 4}}
	tests := []struct {
		x    float64
		want float64
		ok   bool
	}{
		{2, 2, true},
		{0, 0, true},
		{4, 4, true},
		{5, 0, false},
		{-0.5, 0, false},
	}
	for _, tt := range tests {
		got, ok := s.FirstVisit(tt.x)
		if ok != tt.ok || (ok && !numeric.AlmostEqual(got, tt.want, 1e-9)) {
			t.Errorf("FirstVisit(%v) = %v, %v; want %v, %v", tt.x, got, ok, tt.want, tt.ok)
		}
	}
	// A target one rounding past the end is not visited, although the
	// rounded fraction of the way to it is 1.
	turn := Segment{From: Point{X: 1.6666666666666665, T: 3.333333333333333}, To: Point{X: -4.999999999999999, T: 9.999999999999998}}
	if got, ok := turn.FirstVisit(-5); ok {
		t.Errorf("FirstVisit(-5) past the turn at %v = %v, want none", turn.To.X, got)
	}
}

func TestSegmentFirstVisitStationary(t *testing.T) {
	s := Segment{From: Point{X: 2, T: 1}, To: Point{X: 2, T: 9}}
	if got, ok := s.FirstVisit(2); !ok || got != 1 {
		t.Errorf("FirstVisit(2) = %v, %v; want 1, true", got, ok)
	}
	if _, ok := s.FirstVisit(3); ok {
		t.Errorf("FirstVisit(3) reports a visit, want none")
	}
}

func TestSegmentCovers(t *testing.T) {
	s := Segment{From: Point{X: 3, T: 0}, To: Point{X: -1, T: 4}}
	for _, x := range []float64{-1, 0, 1.5, 3} {
		if !s.Covers(x) {
			t.Errorf("Covers(%v) = false, want true", x)
		}
	}
	for _, x := range []float64{-1.01, 3.01, 100} {
		if s.Covers(x) {
			t.Errorf("Covers(%v) = true, want false", x)
		}
	}
}

func TestSegmentVisitWithinCoverProperty(t *testing.T) {
	f := func(x0, t0, dxRaw, dtRaw, q float64) bool {
		if math.IsNaN(x0) || math.IsNaN(t0) || math.IsNaN(dxRaw) || math.IsNaN(dtRaw) || math.IsNaN(q) {
			return true
		}
		x0 = math.Mod(x0, 100)
		t0 = math.Abs(math.Mod(t0, 100))
		dt := math.Abs(math.Mod(dtRaw, 50))
		dx := math.Mod(dxRaw, 2*dt+1e-9) // may exceed unit speed slightly; clamp
		dx = math.Max(-dt, math.Min(dx, dt))
		s := Segment{From: Point{x0, t0}, To: Point{x0 + dx, t0 + dt}}
		// Pick a query position from the swept interval via q in [0,1].
		frac := math.Abs(math.Mod(q, 1))
		x := x0 + frac*dx
		v, ok := s.FirstVisit(x)
		if !s.Covers(x) {
			return !ok
		}
		if !ok {
			return false
		}
		// The reported visit time must be inside the segment and the
		// position there must be x.
		pos, err := s.PositionAt(v)
		return err == nil && numeric.AlmostEqual(pos, x, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Covers reports whether position x lies within the segment's swept
// interval [min(From.X, To.X), max(From.X, To.X)].
func (s Segment) Covers(x float64) bool {
	lo, hi := s.From.X, s.To.X
	if lo > hi {
		lo, hi = hi, lo
	}
	return x >= lo && x <= hi
}
