package linesearch

import (
	"math"
	"math/rand"
	"testing"
)

func mustSearcher(t *testing.T, n, f int) *Searcher {
	t.Helper()
	s, err := New(n, f)
	if err != nil {
		t.Fatalf("New(%d, %d): %v", n, f, err)
	}
	return s
}

func TestNewPicksRecommendedStrategy(t *testing.T) {
	if s := mustSearcher(t, 3, 1); s.Strategy() != "proportional" {
		t.Errorf("New(3,1) strategy %q", s.Strategy())
	}
	if s := mustSearcher(t, 6, 2); s.Strategy() != "twogroup" {
		t.Errorf("New(6,2) strategy %q", s.Strategy())
	}
	if _, err := New(2, 2); err == nil {
		t.Error("hopeless pair accepted")
	}
}

func TestNewWithStrategy(t *testing.T) {
	s, err := NewWithStrategy("doubling", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := s.CompetitiveRatio()
	if err != nil || cr != 9 {
		t.Errorf("doubling CR = %v, %v", cr, err)
	}
	if _, err := NewWithStrategy("nope", 3, 1); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := NewWithStrategy("twogroup", 3, 1); err == nil {
		t.Error("invalid regime accepted")
	}
}

func TestSearchTimeAndAccessors(t *testing.T) {
	s := mustSearcher(t, 3, 1)
	if s.N() != 3 || s.F() != 1 {
		t.Errorf("N, F = %d, %d", s.N(), s.F())
	}
	st, err := s.SearchTime(5)
	if err != nil {
		t.Fatal(err)
	}
	if !(st >= 5) || math.IsInf(st, 1) {
		t.Errorf("SearchTime(5) = %v", st)
	}
	cr, err := s.CompetitiveRatio()
	if err != nil {
		t.Fatal(err)
	}
	if st > cr*5+1e-9 {
		t.Errorf("SearchTime(5) = %v exceeds CR * distance = %v", st, cr*5)
	}
}

func TestTwoGroupSearchTimeEqualsDistance(t *testing.T) {
	s := mustSearcher(t, 6, 2)
	for _, x := range []float64{1, -3.5, 42} {
		got, err := s.SearchTime(x)
		if err != nil {
			t.Fatalf("SearchTime(%v): %v", x, err)
		}
		if got != math.Abs(x) {
			t.Errorf("SearchTime(%v) = %v, want %v", x, got, math.Abs(x))
		}
	}
}

func TestPositions(t *testing.T) {
	s := mustSearcher(t, 3, 1)
	ps, err := s.Positions(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 {
		t.Fatalf("got %d positions", len(ps))
	}
	for i, p := range ps {
		if p != 0 {
			t.Errorf("robot %d at t=0: %v, want origin", i, p)
		}
	}
	if _, err := s.Positions(-1); err == nil {
		t.Error("negative time accepted")
	}
}

func TestDetectionTimeAndWorstFaults(t *testing.T) {
	s := mustSearcher(t, 3, 1)
	x := 2.5
	worst := s.WorstFaultSet(x)
	if len(worst) != 1 {
		t.Fatalf("worst fault set %v, want 1 index", worst)
	}
	dt, err := s.DetectionTime(x, worst)
	if err != nil {
		t.Fatal(err)
	}
	worstTime, err := s.SearchTime(x)
	if err != nil {
		t.Fatal(err)
	}
	if dt != worstTime {
		t.Errorf("worst-fault detection %v != search time %v", dt, worstTime)
	}
	// No faults: detection is the first visit, strictly earlier here.
	dt0, err := s.DetectionTime(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(dt0 < dt) {
		t.Errorf("fault-free detection %v not earlier than worst case %v", dt0, dt)
	}
}

func TestDetectionTimeValidation(t *testing.T) {
	s := mustSearcher(t, 3, 1)
	if _, err := s.DetectionTime(1, []int{5}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := s.DetectionTime(1, []int{0, 0}); err == nil {
		t.Error("duplicate index accepted")
	}
}

func TestMeasureCRMatchesAnalytic(t *testing.T) {
	s := mustSearcher(t, 3, 1)
	analytic, err := s.CompetitiveRatio()
	if err != nil {
		t.Fatal(err)
	}
	sup, witness, err := s.MeasureCR()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sup-analytic) > 1e-6 {
		t.Errorf("measured %v vs analytic %v", sup, analytic)
	}
	if math.Abs(witness) < 1 {
		t.Errorf("witness %v below distance 1", witness)
	}
}

func TestTimeline(t *testing.T) {
	s := mustSearcher(t, 3, 1)
	events, err := s.Timeline(2, []int{0}, 50)
	if err != nil {
		t.Fatal(err)
	}
	var detect bool
	for _, e := range events {
		switch e.Kind {
		case "start", "turn", "visit", "detect":
		default:
			t.Errorf("unknown event kind %q", e.Kind)
		}
		if e.Kind == "detect" {
			detect = true
			if e.Robot == 0 {
				t.Error("faulty robot 0 detected the target")
			}
		}
	}
	if !detect {
		t.Error("no detection within horizon")
	}
}

// TestMonteCarloGolden pins Searcher.MonteCarlo's statistics with exact
// float equality: every trial's draws are a pure function of (seed,
// trial index), and the mean is summed in index order, so any change to
// the driver that moves a bit shows here.
func TestMonteCarloGolden(t *testing.T) {
	cases := []struct {
		strategy string
		n, f     int
		seed     int64
		want     Stats
	}{
		{"proportional", 3, 1, 1, Stats{Trials: 500, Mean: 2.628111994014759, Min: 1.6671536981376853, Max: 5.214275518335862, Median: 2.2830154111454553, P95: 4.702368121860537, P99: 5.1172037710408835}},
		{"proportional", 3, 1, 42, Stats{Trials: 500, Mean: 2.661714269468194, Min: 1.6667653857722904, Max: 5.22895196862842, Median: 2.350346735474378, P95: 4.657392821030384, P99: 5.166430011177613}},
		{"byzantine", 4, 1, 1, Stats{Trials: 500, Mean: 4.134383900546514, Min: 2.7363748344684535, Max: 6.192754629669409, Median: 3.951610292227875, P95: 5.947759715850359, P99: 6.135963145764882}},
		{"byzantine", 4, 1, 42, Stats{Trials: 500, Mean: 4.093482493497255, Min: 2.736482630877719, Max: 6.194928146855874, Median: 3.863134616347699, P95: 5.894672805160608, P99: 6.110155318628473}},
		{"twogroup", 4, 0, 1, Stats{Trials: 500, Mean: 1, Min: 1, Max: 1, Median: 1, P95: 1, P99: 1}},
		{"twogroup", 4, 0, 42, Stats{Trials: 500, Mean: 1, Min: 1, Max: 1, Median: 1, P95: 1, P99: 1}},
	}
	for _, c := range cases {
		s, err := NewWithStrategy(c.strategy, c.n, c.f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.MonteCarlo(c.want.Trials, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s(%d, %d) seed %d:\n got %+v\nwant %+v", c.strategy, c.n, c.f, c.seed, got, c.want)
		}
	}
}

func TestMonteCarlo(t *testing.T) {
	s := mustSearcher(t, 5, 2)
	stats, err := s.MonteCarlo(800, 11)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := s.CompetitiveRatio()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trials != 800 {
		t.Errorf("Trials = %d", stats.Trials)
	}
	if !(1 <= stats.Min && stats.Min <= stats.Median && stats.Median <= stats.P95 &&
		stats.P95 <= stats.P99 && stats.P99 <= stats.Max && stats.Max <= cr+1e-9) {
		t.Errorf("inconsistent stats: %+v (CR %v)", stats, cr)
	}
	if !(stats.Mean < cr) {
		t.Errorf("mean %v not below worst case %v", stats.Mean, cr)
	}
}

func TestVerifyLowerBound(t *testing.T) {
	s := mustSearcher(t, 3, 1)
	alpha, ratio, err := s.VerifyLowerBound()
	if err != nil {
		t.Fatal(err)
	}
	if !(alpha > 3 && ratio >= alpha) {
		t.Errorf("alpha %v, ratio %v", alpha, ratio)
	}
	trivial := mustSearcher(t, 6, 2)
	if _, _, err := trivial.VerifyLowerBound(); err == nil {
		t.Error("trivial regime accepted (outside Theorem 2 hypothesis)")
	}
}

func TestKthVisitTime(t *testing.T) {
	s := mustSearcher(t, 5, 2)
	x := 7.7
	prev := 0.0
	for k := 1; k <= 5; k++ {
		got, err := s.KthVisitTime(x, k)
		if err != nil {
			t.Fatal(err)
		}
		if got <= prev {
			t.Errorf("k=%d: visit time %v not increasing", k, got)
		}
		prev = got
	}
	st, err := s.KthVisitTime(x, 3) // k = f+1
	if err != nil {
		t.Fatal(err)
	}
	worst, err := s.SearchTime(x)
	if err != nil {
		t.Fatal(err)
	}
	if st != worst {
		t.Errorf("KthVisitTime(x, f+1) = %v != SearchTime %v", st, worst)
	}
	if _, err := s.KthVisitTime(x, 0); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := s.KthVisitTime(x, 6); err == nil {
		t.Error("k > n accepted")
	}
}

// TestCompetitiveRatioFallsBackToMeasurement: strategies without a
// closed form (the uniform-spacing ablation) are measured instead.
func TestCompetitiveRatioFallsBackToMeasurement(t *testing.T) {
	s, err := NewWithStrategy("uniform:1.6666666666666667", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := s.CompetitiveRatio()
	if err != nil {
		t.Fatal(err)
	}
	// The uniform schedule at beta* measures ~8.33 (see the spacing
	// experiment); anything clearly above the proportional 5.23 and
	// below the doubling 9 confirms the measurement path ran.
	if !(cr > 6 && cr < 9.5) {
		t.Errorf("measured uniform CR = %v, expected in (6, 9.5)", cr)
	}
}

func TestBounds(t *testing.T) {
	b, err := Bounds(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Upper-5.233) > 2e-3 || math.Abs(b.Lower-3.76) > 5e-3 {
		t.Errorf("bounds %+v", b)
	}
	if math.Abs(b.Beta-5.0/3) > 1e-12 || math.Abs(b.Expansion-4) > 1e-9 {
		t.Errorf("schedule params %+v", b)
	}

	bt, err := Bounds(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bt.Upper != 1 || bt.Lower != 1 || !math.IsNaN(bt.Beta) || !math.IsNaN(bt.Expansion) {
		t.Errorf("trivial bounds %+v", bt)
	}

	if _, err := Bounds(0, 0); err == nil {
		t.Error("invalid pair accepted")
	}
}

// TestNonFiniteInputsRejected: every float-taking query rejects NaN and
// infinities with a clear error instead of computing garbage.
func TestNonFiniteInputsRejected(t *testing.T) {
	s := mustSearcher(t, 3, 1)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := s.SearchTime(x); err == nil {
			t.Errorf("SearchTime(%v) accepted", x)
		}
		if _, err := s.KthVisitTime(x, 2); err == nil {
			t.Errorf("KthVisitTime(%v) accepted", x)
		}
		if _, err := s.DetectionTime(x, nil); err == nil {
			t.Errorf("DetectionTime(%v) accepted", x)
		}
		if _, err := s.Timeline(x, nil, 50); err == nil {
			t.Errorf("Timeline(x=%v) accepted", x)
		}
		if _, err := s.Positions(x); err == nil {
			t.Errorf("Positions(%v) accepted", x)
		}
		if _, err := s.TurningPoints(x); err == nil {
			t.Errorf("TurningPoints(%v) accepted", x)
		}
	}
	if _, err := s.Timeline(2, nil, math.NaN()); err == nil {
		t.Error("Timeline with NaN horizon accepted")
	}
	if _, err := s.Timeline(2, nil, math.Inf(1)); err == nil {
		t.Error("Timeline with infinite horizon accepted")
	}
	if _, err := RobotsNeeded(1, math.NaN()); err == nil {
		t.Error("RobotsNeeded with NaN bound accepted")
	}
	if _, err := FaultsTolerable(3, math.NaN()); err == nil {
		t.Error("FaultsTolerable with NaN bound accepted")
	}
	for _, name := range []string{"cone:+Inf", "cone:Inf", "cone:NaN", "uniform:Inf"} {
		if _, err := NewWithStrategy(name, 3, 1); err == nil {
			t.Errorf("strategy %q accepted", name)
		}
	}
}

// TestSearchTimeDomain: targets closer than the minimal distance are
// outside the guarantee and rejected.
func TestSearchTimeDomain(t *testing.T) {
	s := mustSearcher(t, 3, 1)
	if _, err := s.SearchTime(0.5); err == nil {
		t.Error("target below the minimal distance accepted")
	}
	d, err := NewSearcher(3, 1, WithMinDistance(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.SearchTime(5); err == nil {
		t.Error("target below the scaled minimal distance accepted")
	}
	if _, err := d.SearchTime(-10); err != nil {
		t.Errorf("target at the minimal distance rejected: %v", err)
	}
}

func TestTurningPoints(t *testing.T) {
	s := mustSearcher(t, 3, 1)
	pts, err := s.TurningPoints(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d robots", len(pts))
	}
	for i, ps := range pts {
		if len(ps) < 2 {
			t.Errorf("robot %d: only %d points", i, len(ps))
		}
		prev := math.Inf(-1)
		for _, p := range ps {
			if p.T < prev {
				t.Errorf("robot %d: time runs backward at %+v", i, p)
			}
			prev = p.T
		}
		if ps[0].T != 0 || ps[0].X != 0 {
			t.Errorf("robot %d does not start at the origin: %+v", i, ps[0])
		}
	}
}

func TestPackageLevelConvenience(t *testing.T) {
	cr, err := CompetitiveRatio(2, 1)
	if err != nil || math.Abs(cr-9) > 1e-9 {
		t.Errorf("CompetitiveRatio(2,1) = %v, %v", cr, err)
	}
	lb, err := LowerBound(2, 1)
	if err != nil || lb != 9 {
		t.Errorf("LowerBound(2,1) = %v, %v", lb, err)
	}
	inf, err := CompetitiveRatio(2, 3)
	if err != nil || !math.IsInf(inf, 1) {
		t.Errorf("CompetitiveRatio(2,3) = %v, %v", inf, err)
	}
}

// TestKthVisitTimeProperties checks two invariants across every
// strategy family: T_k(x) is non-decreasing in k (a later distinct
// visitor cannot arrive earlier), and the worst-case search time is
// exactly the (f+1)-st distinct visit.
func TestKthVisitTimeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	strategies := []string{"proportional", "doubling", "twogroup", "cone:2.5", "cone:4", "uniform:3"}
	pairs := []struct{ n, f int }{{1, 0}, {3, 1}, {4, 2}, {5, 2}, {6, 2}, {8, 3}, {9, 4}}
	evaluated := 0
	for _, name := range strategies {
		for _, p := range pairs {
			s, err := NewWithStrategy(name, p.n, p.f)
			if err != nil {
				continue // strategy not defined in this regime
			}
			for i := 0; i < 25; i++ {
				x := math.Pow(10, 3*rng.Float64())
				if rng.Intn(2) == 0 {
					x = -x
				}
				prev := math.Inf(-1)
				for k := 1; k <= p.n; k++ {
					tk, err := s.KthVisitTime(x, k)
					if err != nil {
						t.Fatalf("%s(%d,%d) x=%g k=%d: %v", name, p.n, p.f, x, k, err)
					}
					if tk < prev {
						t.Errorf("%s(%d,%d) x=%g: T_%d = %v < T_%d = %v",
							name, p.n, p.f, x, k, tk, k-1, prev)
					}
					prev = tk
				}
				worst, err := s.SearchTime(x)
				if err != nil {
					t.Fatalf("%s(%d,%d) x=%g: %v", name, p.n, p.f, x, err)
				}
				kth, err := s.KthVisitTime(x, p.f+1)
				if err != nil {
					t.Fatal(err)
				}
				if worst != kth && !(math.IsInf(worst, 1) && math.IsInf(kth, 1)) {
					t.Errorf("%s(%d,%d) x=%g: SearchTime %v != KthVisitTime(x, f+1) %v",
						name, p.n, p.f, x, worst, kth)
				}
				evaluated++
			}
		}
	}
	if evaluated == 0 {
		t.Fatal("no (strategy, n, f) case was evaluable")
	}
}

// FuzzSearchTime exercises the public entry point and the compiled
// kernel against arbitrary (n, f, strategy, x): construction and
// evaluation must never panic, any successful answer must respect the
// unit-speed bound t >= |x|, and the kernel must agree with the direct
// trajectory evaluation in internal/sim.
func FuzzSearchTime(fz *testing.F) {
	strategies := []string{"proportional", "doubling", "twogroup", "cone:2.5", "uniform:3"}
	fz.Add(uint8(3), uint8(1), uint8(0), 4.0)
	fz.Add(uint8(6), uint8(2), uint8(2), -7.5)
	fz.Add(uint8(4), uint8(2), uint8(1), 1e6)
	fz.Add(uint8(1), uint8(0), uint8(1), -1.0)
	fz.Add(uint8(9), uint8(4), uint8(3), 123.456)
	fz.Fuzz(func(t *testing.T, n, faults, si uint8, x float64) {
		if n > 32 {
			return // keep per-input cost bounded; width is not the interesting axis
		}
		s, err := NewWithStrategy(strategies[int(si)%len(strategies)], int(n), int(faults))
		if err != nil {
			return // invalid pair or out-of-regime strategy
		}
		got, err := s.SearchTime(x)
		if err != nil {
			return // target outside the plan's domain
		}
		if !math.IsInf(got, 1) && got < math.Abs(x)-1e-9 {
			t.Errorf("SearchTime(%g) = %v beats the unit-speed bound %v", x, got, math.Abs(x))
		}
		want := s.simPlan().SearchTime(x)
		if math.IsInf(got, 1) != math.IsInf(want, 1) {
			t.Fatalf("SearchTime(%g): kernel %v, sim %v", x, got, want)
		}
		if !math.IsInf(got, 1) {
			scale := math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
			if math.Abs(got-want)/scale > 1e-9 {
				t.Errorf("SearchTime(%g): kernel %v, sim %v (rel err %g)",
					x, got, want, math.Abs(got-want)/scale)
			}
		}
	})
}

// TestTimelineRejectsNonPositiveHorizon: both timeline entry points
// reject a horizon that is not finite and positive with a public error,
// tmax = 0 included (an empty event log is not a useful answer).
func TestTimelineRejectsNonPositiveHorizon(t *testing.T) {
	s, err := NewWithStrategy("byzantine", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "linesearch: timeline horizon must be finite and positive, got "
	cases := []struct {
		tmax float64
		want string
	}{
		{0, prefix + "0"},
		{math.Copysign(0, -1), prefix + "-0"},
		{-1, prefix + "-1"},
		{math.NaN(), prefix + "NaN"},
		{math.Inf(1), prefix + "+Inf"},
		{math.Inf(-1), prefix + "-Inf"},
	}
	for _, c := range cases {
		if _, err := s.Timeline(2, []int{0}, c.tmax); err == nil || err.Error() != c.want {
			t.Errorf("Timeline(tmax=%g): error %v, want %q", c.tmax, err, c.want)
		}
		if _, err := s.TimelineFaults(2, []int{0}, nil, c.tmax); err == nil || err.Error() != c.want {
			t.Errorf("TimelineFaults(tmax=%g): error %v, want %q", c.tmax, err, c.want)
		}
	}
	if _, err := s.Timeline(2, []int{0}, 1e-9); err != nil {
		t.Errorf("tiny positive horizon rejected: %v", err)
	}
}

// TestFaultIndexErrors pins the error text for malformed fault lists.
func TestFaultIndexErrors(t *testing.T) {
	s, err := NewWithStrategy("byzantine", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"detection out of range", func() error { _, err := s.DetectionTime(2, []int{4}); return err },
			"linesearch: faulty robot index 4 out of range [0, 4)"},
		{"detection negative", func() error { _, err := s.DetectionTime(2, []int{-1}); return err },
			"linesearch: faulty robot index -1 out of range [0, 4)"},
		{"detection duplicate", func() error { _, err := s.DetectionTime(2, []int{1, 1}); return err },
			"linesearch: duplicate faulty robot index 1"},
		{"timeline duplicate", func() error { _, err := s.Timeline(2, []int{2, 2}, 50); return err },
			"linesearch: duplicate faulty robot index 2"},
		{"silent out of range", func() error { _, err := s.TimelineFaults(2, []int{9}, nil, 50); return err },
			"linesearch: faulty robot index 9 out of range [0, 4)"},
		{"silent duplicate", func() error { _, err := s.TimelineFaults(2, []int{1, 1}, nil, 50); return err },
			"linesearch: robot 1 assigned two fault kinds"},
		{"silent and liar", func() error { _, err := s.TimelineFaults(2, []int{1}, []int{1}, 50); return err },
			"linesearch: robot 1 assigned two fault kinds"},
	}
	for _, c := range cases {
		if err := c.call(); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}
