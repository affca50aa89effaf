package schedule

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"linesearch/internal/analysis"
	"linesearch/internal/geom"
	"linesearch/internal/numeric"
	"linesearch/internal/trajectory"
)

func mustOptimal(t *testing.T, n, f int) *Schedule {
	t.Helper()
	s, err := NewOptimal(n, f)
	if err != nil {
		t.Fatalf("NewOptimal(%d, %d): %v", n, f, err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(4, 1, 2); err == nil {
		t.Error("trivial-regime pair accepted")
	}
	if _, err := New(3, 3, 2); err == nil {
		t.Error("hopeless pair accepted")
	}
	if _, err := New(3, 1, 1); err == nil {
		t.Error("beta = 1 accepted")
	}
	if _, err := New(3, 1, 0.5); err == nil {
		t.Error("beta < 1 accepted")
	}
}

func TestNewOptimalAccessors(t *testing.T) {
	s := mustOptimal(t, 3, 1)
	if s.n != 3 || s.f != 1 {
		t.Errorf("n, f = %d, %d; want 3, 1", s.n, s.f)
	}
	if !numeric.AlmostEqual(s.Beta(), 5.0/3, 1e-9) {
		t.Errorf("Beta = %v, want 5/3", s.Beta())
	}
	if !numeric.AlmostEqual(s.cone.ExpansionFactor(), 4, 1e-9) {
		t.Errorf("ExpansionFactor = %v, want 4", s.cone.ExpansionFactor())
	}
	if !numeric.AlmostEqual(s.Ratio(), math.Pow(4, 2.0/3), 1e-9) {
		t.Errorf("Ratio = %v, want 4^(2/3)", s.Ratio())
	}
	if got := len(s.Trajectories()); got != 3 {
		t.Errorf("len(Trajectories) = %d, want 3", got)
	}
}

func TestRobotZeroAnchorsAtOne(t *testing.T) {
	for _, p := range [][2]int{{2, 1}, {3, 1}, {4, 2}, {5, 3}, {11, 5}} {
		s := mustOptimal(t, p[0], p[1])
		tail, ok := s.Trajectories()[0].TailOf().(*trajectory.ZigZag)
		if !ok {
			t.Fatalf("(%d,%d): robot 0 tail is not a zig-zag", p[0], p[1])
		}
		a := tail.Anchor()
		if !numeric.AlmostEqual(a.X, 1, 1e-9) || !numeric.AlmostEqual(a.T, s.Beta(), 1e-9) {
			t.Errorf("(%d,%d): robot 0 anchor %v, want (1, beta)", p[0], p[1], a)
		}
	}
}

func TestOtherRobotsAnchorBelowOne(t *testing.T) {
	for _, p := range [][2]int{{3, 1}, {4, 2}, {5, 2}, {5, 3}, {11, 5}, {41, 20}} {
		s := mustOptimal(t, p[0], p[1])
		for i, tr := range s.Trajectories()[1:] {
			a := tr.TailOf().Anchor()
			if math.Abs(a.X) >= 1 {
				t.Errorf("(%d,%d): robot %d anchor |x| = %v, want < 1", p[0], p[1], i+1, math.Abs(a.X))
			}
			if a.X == 0 {
				t.Errorf("(%d,%d): robot %d anchors at the apex", p[0], p[1], i+1)
			}
		}
	}
}

func TestAnchorIsBackwardIterateOfDesignatedTurningPoint(t *testing.T) {
	s := mustOptimal(t, 5, 3)
	for i, tr := range s.Trajectories() {
		tail := tr.TailOf().(*trajectory.ZigZag)
		want := math.Pow(s.Ratio(), float64(i))
		// Walk the tail forward: some turning point must equal r^i.
		found := false
		for k := 0; k < 10; k++ {
			if numeric.AlmostEqual(tail.TurningPoint(k).X, want, 1e-9) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("robot %d: designated turning point r^%d = %v not on its trajectory", i, i, want)
		}
	}
}

// TestMergedTurningPointsAreGeometric verifies Definition 2: the merged
// sequence of positive turning points (collected from the realised
// trajectories, not from the closed form) has constant ratio r, and
// consecutive points belong to different robots, cycling through all n.
func TestMergedTurningPointsAreGeometric(t *testing.T) {
	for _, p := range [][2]int{{2, 1}, {3, 1}, {3, 2}, {4, 2}, {4, 3}, {5, 2}, {5, 3}, {5, 4}, {11, 5}} {
		n, f := p[0], p[1]
		s := mustOptimal(t, n, f)
		type turning struct {
			x     float64
			t     float64
			robot int
		}
		var merged []turning
		for i, tr := range s.Trajectories() {
			tail := tr.TailOf().(*trajectory.ZigZag)
			for k := 0; ; k++ {
				tp := tail.TurningPoint(k)
				if math.Abs(tp.X) > 1e9 {
					break
				}
				if tp.X >= 1-1e-12 {
					merged = append(merged, turning{x: tp.X, t: tp.T, robot: i})
				}
			}
		}
		sort.Slice(merged, func(a, b int) bool { return merged[a].x < merged[b].x })
		if len(merged) < 3*n {
			t.Fatalf("(%d,%d): only %d merged turning points", n, f, len(merged))
		}
		r := s.Ratio()
		for k := 1; k < len(merged); k++ {
			got := merged[k].x / merged[k-1].x
			if !numeric.AlmostEqual(got, r, 1e-9) {
				t.Errorf("(%d,%d): merged ratio at k=%d is %v, want %v", n, f, k, got, r)
			}
			if merged[k].robot == merged[k-1].robot {
				t.Errorf("(%d,%d): consecutive turning points %d, %d share robot %d", n, f, k-1, k, merged[k].robot)
			}
		}
		// Every window of n consecutive turning points hits all n robots.
		for k := 0; k+n <= len(merged); k++ {
			seen := make(map[int]bool, n)
			for j := k; j < k+n; j++ {
				seen[merged[j].robot] = true
			}
			if len(seen) != n {
				t.Errorf("(%d,%d): window at %d covers only %d robots", n, f, k, len(seen))
			}
		}
		// Lemma 2, second part: t_{k+1} = t_k + tau_k * beta * (r-1).
		for k := 1; k < len(merged); k++ {
			want := merged[k-1].t + merged[k-1].x*s.Beta()*(r-1)
			if !numeric.AlmostEqual(merged[k].t, want, 1e-9) {
				t.Errorf("(%d,%d): t_%d = %v, want %v (Lemma 2)", n, f, k, merged[k].t, want)
			}
		}
	}
}

// TestScheduleRatioPropertyRandomBeta: for random valid (n, f, beta),
// the realised schedule's first few merged turning points grow exactly
// by the Lemma 2 ratio r = kappa^(2/n).
func TestScheduleRatioPropertyRandomBeta(t *testing.T) {
	f := func(nRaw, fRaw uint8, betaRaw float64) bool {
		n := int(nRaw%12) + 2
		ff := int(fRaw % 12)
		if analysis.ValidateProportional(n, ff) != nil {
			return true
		}
		beta := 1.05 + math.Abs(math.Mod(betaRaw, 8))
		s, err := New(n, ff, beta)
		if err != nil {
			return false
		}
		r := s.Ratio()
		prev, _ := s.TurningPoint(0)
		for k := 1; k <= 2*n; k++ {
			cur, _ := s.TurningPoint(k)
			if !numeric.AlmostEqual(cur.X/prev.X, r, 1e-9) {
				return false
			}
			// The owning robot's trajectory really turns there: its tail
			// contains a turning point at this position.
			if _, owner := s.TurningPoint(k); owner != k%n {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestEquation12SegmentLengths verifies Lemma 2's Equation 12: the
// space–time distance between consecutive merged turning points A_k,
// A_{k+1} is d_k = tau_k * sqrt(beta^2+1) * (r-1), growing geometrically
// with ratio r.
func TestEquation12SegmentLengths(t *testing.T) {
	for _, p := range [][2]int{{3, 1}, {4, 2}, {5, 3}, {11, 5}} {
		s := mustOptimal(t, p[0], p[1])
		beta, r := s.Beta(), s.Ratio()
		scale := math.Sqrt(beta*beta + 1)
		for k := 0; k < 3*p[0]; k++ {
			a, _ := s.TurningPoint(k)
			b, _ := s.TurningPoint(k + 1)
			dist := math.Hypot(b.X-a.X, b.T-a.T)
			want := a.X * scale * (r - 1)
			if !numeric.AlmostEqual(dist, want, 1e-9) {
				t.Errorf("(%d,%d) k=%d: |A_k A_{k+1}| = %v, want %v (Eq 12)", p[0], p[1], k, dist, want)
			}
		}
	}
}

func TestTurningPointAccessor(t *testing.T) {
	s := mustOptimal(t, 3, 1)
	r := s.Ratio()
	for k := 0; k < 9; k++ {
		p, robot := s.TurningPoint(k)
		if !numeric.AlmostEqual(p.X, math.Pow(r, float64(k)), 1e-12) {
			t.Errorf("TurningPoint(%d).X = %v, want r^%d", k, p.X, k)
		}
		if robot != k%3 {
			t.Errorf("TurningPoint(%d) owner = %d, want %d", k, robot, k%3)
		}
		if !numeric.AlmostEqual(p.T, s.Beta()*p.X, 1e-12) {
			t.Errorf("TurningPoint(%d) not on cone boundary", k)
		}
	}
}

func TestTurningPointPanicsOnNegativeIndex(t *testing.T) {
	s := mustOptimal(t, 3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("TurningPoint(-1) did not panic")
		}
	}()
	s.TurningPoint(-1)
}

func TestStartupLegs(t *testing.T) {
	cone := geom.MustCone(3)
	legs := appendStartupLegs(nil, cone, -0.5)
	if len(legs) != 2 {
		t.Fatalf("got %d legs, want 2", len(legs))
	}
	if legs[0].From != (geom.Point{X: 0, T: 0}) {
		t.Errorf("leg 0 starts at %v, want origin", legs[0].From)
	}
	if legs[0].To != (geom.Point{X: 0, T: 1}) { // (beta-1)*0.5 = 1
		t.Errorf("waiting leg ends at %v, want (0, 1)", legs[0].To)
	}
	if legs[1].To != (geom.Point{X: -0.5, T: 1.5}) {
		t.Errorf("moving leg ends at %v, want (-0.5, 1.5)", legs[1].To)
	}
	if legs[1].Speed() != 1 {
		t.Errorf("moving leg speed %v, want 1", legs[1].Speed())
	}
}

func TestStartupLegsZeroWait(t *testing.T) {
	// A degenerate cone slope cannot happen (beta > 1), but x = 0 yields
	// a single no-op leg; guard the branch.
	cone := geom.MustCone(2)
	legs := appendStartupLegs(nil, cone, 0)
	if len(legs) != 1 {
		t.Fatalf("got %d legs, want 1", len(legs))
	}
}

// TestAllRobotsInsideConeAfterBeta: per Definition 4, from time beta
// onward every robot moves according to the proportional schedule, in
// particular inside the cone.
func TestAllRobotsInsideConeAfterBeta(t *testing.T) {
	for _, p := range [][2]int{{3, 1}, {5, 3}, {11, 5}} {
		s := mustOptimal(t, p[0], p[1])
		cone := s.Cone()
		for i, tr := range s.Trajectories() {
			for _, tt := range numeric.Linspace(s.Beta(), 50*s.Beta(), 200) {
				x, err := trajectory.PositionAt(tr.Legs(), tr.TailOf(), tt)
				if err != nil {
					t.Fatalf("(%d,%d) robot %d PositionAt(%v): %v", p[0], p[1], i, tt, err)
				}
				if !cone.Contains(geom.Point{X: x, T: tt}, 1e-6) {
					t.Errorf("(%d,%d) robot %d outside cone at t=%v: x=%v", p[0], p[1], i, tt, x)
				}
			}
		}
	}
}

// TestTrajectoriesStartAtOrigin: all robots depart from the source.
func TestTrajectoriesStartAtOrigin(t *testing.T) {
	s := mustOptimal(t, 41, 20)
	for i, tr := range s.Trajectories() {
		// Every start time is >= 0, so only a start at time 0 has a
		// position at time 0.
		if x, err := trajectory.PositionAt(tr.Legs(), tr.TailOf(), 0); err != nil || x != 0 {
			t.Errorf("robot %d at time 0: %v, %v; want the origin", i, x, err)
		}
	}
}

func TestAnalyticCRMatchesTheorem1(t *testing.T) {
	for _, p := range [][2]int{{2, 1}, {3, 1}, {4, 2}, {5, 3}, {11, 5}, {41, 20}} {
		s := mustOptimal(t, p[0], p[1])
		got, err := s.AnalyticCR()
		if err != nil {
			t.Fatal(err)
		}
		want, err := analysis.UpperBoundCR(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.AlmostEqual(got, want, 1e-12) {
			t.Errorf("(%d,%d): AnalyticCR = %v, want %v", p[0], p[1], got, want)
		}
	}
}

// TestSuboptimalBetaSchedulesAreValid: the ablation sweeps beta away
// from beta*; the construction must remain sound.
func TestSuboptimalBetaSchedulesAreValid(t *testing.T) {
	for _, beta := range []float64{1.1, 1.5, 2, 3, 10} {
		s, err := New(3, 1, beta)
		if err != nil {
			t.Fatalf("New(3, 1, %v): %v", beta, err)
		}
		for i, tr := range s.Trajectories() {
			if err := tr.Validate(); err != nil {
				t.Errorf("beta=%v robot %d: %v", beta, i, err)
			}
		}
	}
}

// TurningPoint returns the k-th merged positive turning point tau_k =
// dmin * r^k (k >= 0) together with the robot that owns it (robot
// k mod n).
func (s *Schedule) TurningPoint(k int) (geom.Point, int) {
	if k < 0 {
		panic("schedule: negative merged turning-point index")
	}
	x := s.dmin * math.Pow(s.r, float64(k))
	return s.cone.BoundaryPoint(x), k % s.n
}

// AnalyticCR returns the closed-form competitive ratio of this schedule
// (Lemma 5 at the schedule's beta).
func (s *Schedule) AnalyticCR() (float64, error) {
	return analysis.ConeCR(s.beta, s.n, s.f)
}
