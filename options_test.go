package linesearch

import (
	"math"
	"testing"
)

func TestNewSearcherDefaults(t *testing.T) {
	s, err := NewSearcher(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Strategy() != "proportional" || s.MinDistance() != 1 {
		t.Errorf("defaults: strategy %q, minDistance %v", s.Strategy(), s.MinDistance())
	}
}

func TestNewSearcherWithStrategy(t *testing.T) {
	s, err := NewSearcher(3, 1, WithStrategy("doubling"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Strategy() != "doubling" {
		t.Errorf("strategy %q", s.Strategy())
	}
	if _, err := NewSearcher(3, 1, WithStrategy("")); err == nil {
		t.Error("empty strategy accepted")
	}
	if _, err := NewSearcher(3, 1, WithStrategy("bogus")); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestNewSearcherWithMinDistance(t *testing.T) {
	const d = 25.0
	s, err := NewSearcher(3, 1, WithMinDistance(d))
	if err != nil {
		t.Fatal(err)
	}
	if s.MinDistance() != d {
		t.Fatalf("MinDistance = %v", s.MinDistance())
	}
	// The CR over |x| >= d is the Theorem 1 value.
	sup, witness, err := s.MeasureCR()
	if err != nil {
		t.Fatal(err)
	}
	want, err := CompetitiveRatio(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sup-want) > 1e-6 {
		t.Errorf("scaled CR = %v, want %v", sup, want)
	}
	if math.Abs(witness) < d {
		t.Errorf("witness %v below min distance %v", witness, d)
	}

	// The scaled guarantee holds pointwise: every target at or beyond d
	// is found within CR times its distance. (Individual targets may be
	// found faster or slower than under the unit normalisation — the
	// ratio function oscillates within each expansion period — but the
	// supremum is invariant.)
	for _, x := range []float64{d, -1.7 * d, 10 * d, -123 * d} {
		got, err := s.SearchTime(x)
		if err != nil {
			t.Fatalf("SearchTime(%v): %v", x, err)
		}
		if got > want*math.Abs(x)+1e-6 {
			t.Errorf("SearchTime(%v) = %v exceeds CR*|x| = %v", x, got, want*math.Abs(x))
		}
	}
}

func TestNewSearcherWithMinDistanceValidation(t *testing.T) {
	for _, d := range []float64{0, -1, math.Inf(1)} {
		if _, err := NewSearcher(3, 1, WithMinDistance(d)); err == nil {
			t.Errorf("WithMinDistance(%v) accepted", d)
		}
	}
}

// TestMinDistanceScalesEveryStrategy: a minimal distance d rescales the
// schedule, so robot 0's first turning point moves out d times, under
// the Byzantine wrapper as under the plain strategy.
func TestMinDistanceScalesEveryStrategy(t *testing.T) {
	const d = 5.0
	firstTurn := func(name string, md float64) Point {
		t.Helper()
		s, err := NewSearcher(3, 1, WithStrategy(name), WithMinDistance(md))
		if err != nil {
			t.Fatalf("%s mindist %g: %v", name, md, err)
		}
		pts, err := s.TurningPoints(100 * md)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts[0]) < 2 {
			t.Fatalf("%s mindist %g: robot 0 has no turning point: %v", name, md, pts[0])
		}
		return pts[0][1]
	}
	for _, name := range []string{"doubling", "pfaulty", "byzantine:doubling", "byzantine:pfaulty", "byzantine:cone:2.5"} {
		unit, scaled := firstTurn(name, 1), firstTurn(name, d)
		if math.Abs(scaled.T-d*unit.T) > 1e-9*scaled.T || math.Abs(scaled.X-d*unit.X) > 1e-9*math.Abs(scaled.X) {
			t.Errorf("%s: first turning point at mindist %g is %+v, want %g x %+v", name, d, scaled, d, unit)
		}
	}
}

func TestNewSearcherMinDistanceWithTwoGroup(t *testing.T) {
	// The two-group sweep ignores the hint but must still work.
	s, err := NewSearcher(6, 2, WithMinDistance(50))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.SearchTime(100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Errorf("SearchTime(100) = %v, want 100", got)
	}
}

func TestNewSearcherCombinedOptions(t *testing.T) {
	s, err := NewSearcher(3, 1, WithStrategy("cone:2.5"), WithMinDistance(4))
	if err != nil {
		t.Fatal(err)
	}
	if s.Strategy() != "cone:2.5" || s.MinDistance() != 4 {
		t.Errorf("strategy %q, minDistance %v", s.Strategy(), s.MinDistance())
	}
}

func TestRobotsNeeded(t *testing.T) {
	tests := []struct {
		f     int
		maxCR float64
		want  int
	}{
		{1, 9, 2},    // n = f+1 achieves exactly 9
		{1, 8.9, 3},  // need one more robot to beat 9
		{1, 5.24, 3}, // A(3,1) = 5.233
		{1, 5.2, 4},  // must jump to the trivial regime
		{1, 1, 4},    // trivial regime
		{2, 4.44, 5}, // A(5,2) = 4.434
		{2, 4.4, 6},
		{0, 9, 1}, // a lone reliable robot doubles at ratio 9
		{0, 3, 2}, // two reliable robots sweep at ratio 1
	}
	for _, tt := range tests {
		got, err := RobotsNeeded(tt.f, tt.maxCR)
		if err != nil {
			t.Errorf("RobotsNeeded(%d, %v): %v", tt.f, tt.maxCR, err)
			continue
		}
		if got != tt.want {
			t.Errorf("RobotsNeeded(%d, %v) = %d, want %d", tt.f, tt.maxCR, got, tt.want)
		}
	}
}

func TestRobotsNeededValidation(t *testing.T) {
	if _, err := RobotsNeeded(-1, 5); err == nil {
		t.Error("negative f accepted")
	}
	if _, err := RobotsNeeded(2, 0.5); err == nil {
		t.Error("maxCR < 1 accepted")
	}
}

func TestRobotsNeededConsistent(t *testing.T) {
	// The returned n must meet the bound and n-1 must not.
	for f := 1; f <= 30; f++ {
		for _, maxCR := range []float64{3.5, 4, 5, 7, 9} {
			n, err := RobotsNeeded(f, maxCR)
			if err != nil {
				t.Fatalf("RobotsNeeded(%d, %v): %v", f, maxCR, err)
			}
			cr, err := CompetitiveRatio(n, f)
			if err != nil {
				t.Fatal(err)
			}
			if cr > maxCR+1e-9 {
				t.Errorf("f=%d maxCR=%v: n=%d has CR %v", f, maxCR, n, cr)
			}
			if n > f+1 {
				prev, err := CompetitiveRatio(n-1, f)
				if err != nil {
					t.Fatal(err)
				}
				if prev <= maxCR-1e-9 {
					t.Errorf("f=%d maxCR=%v: n-1=%d already has CR %v", f, maxCR, n-1, prev)
				}
			}
		}
	}
}

func TestFaultsTolerable(t *testing.T) {
	tests := []struct {
		n     int
		maxCR float64
		want  int
	}{
		{2, 9, 1},
		{3, 9, 2},
		{3, 6, 1},   // A(3,1) = 5.233 fits, f=2 would be 9
		{5, 4.5, 2}, // A(5,2) = 4.434
		{5, 7, 3},   // A(5,3) = 6.764
		{6, 1, 2},   // trivial regime with f = 2
		{1, 9, 0},
	}
	for _, tt := range tests {
		got, err := FaultsTolerable(tt.n, tt.maxCR)
		if err != nil {
			t.Errorf("FaultsTolerable(%d, %v): %v", tt.n, tt.maxCR, err)
			continue
		}
		if got != tt.want {
			t.Errorf("FaultsTolerable(%d, %v) = %d, want %d", tt.n, tt.maxCR, got, tt.want)
		}
	}
}

func TestFaultsTolerableValidation(t *testing.T) {
	if _, err := FaultsTolerable(0, 5); err == nil {
		t.Error("n = 0 accepted")
	}
	if _, err := FaultsTolerable(3, 0.5); err == nil {
		t.Error("maxCR < 1 accepted")
	}
}

// TestInverseDesignRoundTrip: RobotsNeeded and FaultsTolerable are
// mutually consistent.
func TestInverseDesignRoundTrip(t *testing.T) {
	for f := 1; f <= 20; f++ {
		for _, maxCR := range []float64{3.3, 4.2, 6.5, 9} {
			n, err := RobotsNeeded(f, maxCR)
			if err != nil {
				t.Fatal(err)
			}
			back, err := FaultsTolerable(n, maxCR)
			if err != nil {
				t.Fatal(err)
			}
			if back < f {
				t.Errorf("f=%d maxCR=%v: n=%d tolerates only %d faults", f, maxCR, n, back)
			}
		}
	}
}
