package compiled

import (
	"math"
	"math/rand"
	"testing"

	"linesearch/internal/fault"
	"linesearch/internal/geom"
	"linesearch/internal/strategy"
	"linesearch/internal/trajectory"
)

// halfLineTraj builds the one-sided sweep with base excursion b and
// growth gamma, anchored at the origin.
func halfLineTraj(t testing.TB, b, gamma float64) *trajectory.Trajectory {
	t.Helper()
	tr, err := trajectory.New(nil, trajectory.MustHalfZigZag(geom.Point{X: 0, T: 0}, b, gamma))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// halfLineSpec is the half-line sweep with base excursion b and growth
// gamma as the series reads a robot of a compiled plan, at target x,
// speed and miss probability miss.
func halfLineSpec(t testing.TB, b, gamma, x, speed, miss float64) robotSpec {
	t.Helper()
	_, p := compileFleet(t, []*trajectory.Trajectory{halfLineTraj(t, b, gamma)}, fault.CrashModel(0))
	return planSpec(p, 0, x, speed, miss)
}

// planSpec returns robot i of p as the series reads it at target x,
// at speed and with miss probability miss.
func planSpec(p *Plan, i int, x, speed, miss float64) robotSpec {
	s := robotSpec{first: p.FirstVisits(x, nil)[i], speed: speed, miss: miss}
	s.legs, s.tail = p.source(i, &s.buf)
	return s
}

// sampleHorizon bounds the visit stream the Monte Carlo oracle walks.
// On the gamma = 2 sweeps sampled here it holds ~60 visits, so a trial
// runs out only if every one of them misses.
const sampleHorizon = 1e9

// sampleDetection is the Monte Carlo oracle for the series: each trial
// flips every robot's per-visit coins along its deduplicated visit
// stream and takes the earliest success divided by the robot's speed.
// It returns the sample mean and its standard error.
func sampleDetection(t *testing.T, robots []robotSpec, x float64, trials int, seed int64) (mean, stdErr float64) {
	t.Helper()
	streams := make([][]float64, len(robots))
	for i, r := range robots {
		last := math.Inf(-1)
		for _, v := range trajectory.VisitsUntil(r.legs, r.tail, x, sampleHorizon) {
			if v-last > visitDedupeTol {
				streams[i] = append(streams[i], v)
				last = v
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var sum, sumSq float64
	for trial := 0; trial < trials; trial++ {
		first := math.Inf(1)
		for i, r := range robots {
			for _, v := range streams[i] {
				if rng.Float64() >= r.miss {
					first = math.Min(first, v/r.speed)
					break
				}
			}
		}
		if math.IsInf(first, 1) {
			t.Fatalf("trial %d: no robot confirmed within the sampled horizon", trial)
		}
		sum += first
		sumSq += first * first
	}
	n := float64(trials)
	mean = sum / n
	return mean, math.Sqrt((sumSq - n*mean*mean) / (n - 1) / n)
}

func TestExpectedReliableIsFirstVisit(t *testing.T) {
	tr := halfLineTraj(t, 1, 2)
	fv, _ := tr.FirstVisit(3.3)
	got := expectedDetectionTime([]robotSpec{halfLineSpec(t, 1, 2, 3.3, 1, 0)}, 3.3)
	if math.Abs(got-fv) > 1e-12*fv {
		t.Errorf("E[T] = %g, want first visit %g", got, fv)
	}
}

// TestExpectedMatchesClosedFormSingleRobot checks the merged-stream
// summation against an independently derived geometric closed form for
// one p-faulty robot on the half-line sweep with excursions b*gamma^k:
// with P the per-visit failure probability, R = P^2*gamma and K the
// first excursion reaching x,
//
//	E[T] = (2b/(g-1))((1-P^2) g^(K-1)/(1-R) - 1)
//	     + x (1-P)/(1+P) + 2P(1-P) b g^(K-1)/(1-R).
func TestExpectedMatchesClosedFormSingleRobot(t *testing.T) {
	for _, c := range []struct {
		b, gamma, p, x float64
	}{
		{1, 2, 0.5, 3.7},
		{1, 2, 0.25, 1.1},
		{1, 2, 0, 9.4},
		{2, 3, 0.4, 17.0},
		{1, 1.5, 0.7, 2.6},
		{0.5, 4, 0.3, 100},
	} {
		got := expectedDetectionTime([]robotSpec{halfLineSpec(t, c.b, c.gamma, c.x, 1, c.p)}, c.x)
		P, g := c.p, c.gamma
		R := P * P * g
		K := 1
		for c.b*math.Pow(g, float64(K-1)) < c.x {
			K++
		}
		gk := math.Pow(g, float64(K-1))
		want := (2*c.b/(g-1))*((1-P*P)*gk/(1-R)-1) +
			c.x*(1-P)/(1+P) + 2*P*(1-P)*c.b*gk/(1-R)
		if math.Abs(got-want) > 1e-6*want {
			t.Errorf("b=%g g=%g p=%g x=%g: series %g, closed form %g",
				c.b, c.gamma, c.p, c.x, got, want)
		}
	}
}

func TestExpectedDivergesWhenRAtLeastOne(t *testing.T) {
	// gamma=2, p=0.75: R = 0.5625*2 = 1.125 >= 1 — the expectation is
	// infinite even though detection is almost sure.
	if got := expectedDetectionTime([]robotSpec{halfLineSpec(t, 1, 2, 3, 1, 0.75)}, 3); !math.IsInf(got, 1) {
		t.Errorf("E[T] = %g for p^2*gamma = 1.125, want +Inf", got)
	}
}

func TestExpectedMixedFleetBelowSoloPFaulty(t *testing.T) {
	solo := expectedDetectionTime([]robotSpec{halfLineSpec(t, 1, 2, 5, 1, 0.5)}, 5)
	duo := expectedDetectionTime([]robotSpec{
		halfLineSpec(t, 1, 2, 5, 1, 0.5),
		halfLineSpec(t, 1, 2, 5, 1, 0.5),
	}, 5)
	if !(duo < solo) {
		t.Errorf("two robots E[T]=%g not below one robot's %g", duo, solo)
	}
	// Two identical p-robots visiting simultaneously behave like one
	// robot with p^2 per collective visit.
	squared := expectedDetectionTime([]robotSpec{halfLineSpec(t, 1, 2, 5, 1, 0.25)}, 5)
	if math.Abs(duo-squared) > 1e-9*squared {
		t.Errorf("duo E[T]=%g, p^2 solo E[T]=%g — should coincide", duo, squared)
	}
}

func TestExpectedUnreachableAndStarved(t *testing.T) {
	tr := halfLineTraj(t, 1, 2)
	// Behind the base: never visited.
	if got := expectedDetectionTime([]robotSpec{halfLineSpec(t, 1, 2, -2, 1, 0)}, -2); !math.IsInf(got, 1) {
		t.Errorf("unreachable target E[T] = %g, want +Inf", got)
	}
	// The only visitor crashes: nobody confirms.
	left, err := trajectory.New(nil, trajectory.MustHalfZigZag(geom.Point{X: 0, T: 0}, -1, 2))
	if err != nil {
		t.Fatal(err)
	}
	_, plan := compileFleet(t, []*trajectory.Trajectory{tr, left}, fault.CrashModel(1))
	got, err := plan.ExpectedSearchTime(2, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Errorf("starved fleet E[T] = %g, want +Inf", got)
	}
}

// TestExpectedOverflowingFirstVisitIsNone: a first visit past
// float64's range is no visit, as FirstVisits lists it, so at miss
// probability 0 the series is the worst-case search time, +Inf, and not
// the NaN an opportunity at time +Inf once summed to.
func TestExpectedOverflowingFirstVisitIsNone(t *testing.T) {
	_, p := compileSim(t, strategy.Proportional{}, 3, 1)
	for _, x := range []float64{1e308, -1e308} {
		for _, speeds := range [][]float64{nil, {2}, {1, 0.25, 4}} {
			got, err := p.ExpectedSearchTime(x, 0, speeds)
			if err != nil {
				t.Fatal(err)
			}
			if !math.IsInf(got, 1) {
				t.Errorf("x=%g speeds %v: E[T] = %v, want +Inf", x, speeds, got)
			}
		}
	}
}

func TestExpectedRejectsUnsupportedRegimes(t *testing.T) {
	_, plan := compileFleet(t, []*trajectory.Trajectory{halfLineTraj(t, 1, 2), halfLineTraj(t, 1, 3)}, fault.CrashModel(1))
	for _, c := range []struct {
		name    string
		x, miss float64
		speeds  []float64
	}{
		{"NaN target", math.NaN(), 0, nil},
		{"infinite target", math.Inf(1), 0, nil},
		{"p=1.5", 3, 1.5, nil},
		{"p=1", 3, 1, nil},
		{"NaN p", 3, math.NaN(), nil},
		{"negative p", 3, -0.1, nil},
		{"speed count", 3, 0.5, []float64{1, 2, 3}},
		{"zero speed", 3, 0.5, []float64{1, 0}},
		{"NaN speed", 3, 0.5, []float64{math.NaN()}},
	} {
		if _, err := plan.ExpectedSearchTime(c.x, c.miss, c.speeds); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// TestExpectedCrossValidatesMonteCarlo ties the analytic series to an
// independent sampler: the two must agree within Monte Carlo
// confidence bounds.
func TestExpectedCrossValidatesMonteCarlo(t *testing.T) {
	for _, c := range []struct {
		name  string
		specs func(x float64) []robotSpec
		x     float64
	}{
		{"solo p=0.5", func(x float64) []robotSpec {
			return []robotSpec{halfLineSpec(t, 1, 2, x, 1, 0.5)}
		}, 3.7},
		{"duo p=0.6 mixed speeds", func(x float64) []robotSpec {
			return []robotSpec{
				halfLineSpec(t, 1, 2, x, 1, 0.6),
				halfLineSpec(t, 1, 2, x, 2, 0.6),
			}
		}, 7.2},
	} {
		t.Run(c.name, func(t *testing.T) {
			specs := c.specs(c.x)
			want := expectedDetectionTime(specs, c.x)
			mean, stdErr := sampleDetection(t, specs, c.x, 20000, 1)
			// 5 standard errors: a ~1-in-2M false-failure rate.
			if diff := math.Abs(mean - want); diff > 5*stdErr {
				t.Errorf("analytic %g vs MC %g +- %g: off by %.1f sigma",
					want, mean, stdErr, diff/stdErr)
			}
		})
	}
}

// TestPFaultyStrategyMatchesCollectiveCoin ties the pfaulty strategy
// family to the series: a plan built by the family, with the
// worst-case crash and every other robot p-faulty, must have the same
// expected detection time as the equivalent single robot carrying the
// collective coin p^(n-f) — and the sampled mean must agree.
func TestPFaultyStrategyMatchesCollectiveCoin(t *testing.T) {
	const n, f, x = 3, 1, 11.0
	st, err := strategy.Parse("pfaulty:0.5:2")
	if err != nil {
		t.Fatal(err)
	}
	_, plan := compileSim(t, st, n, f)
	fleet, err := plan.ExpectedSearchTime(x, plan.Model().P, nil)
	if err != nil {
		t.Fatal(err)
	}

	pEff := st.(strategy.PFaultySearch).EffectiveP(n, f)
	solo := expectedDetectionTime([]robotSpec{planSpec(plan, 0, x, 1, pEff)}, x)
	if math.Abs(fleet-solo) > 1e-9*solo {
		t.Errorf("fleet E[T]=%g, collective-coin solo E[T]=%g — should coincide", fleet, solo)
	}

	// The robots move together, so the crash lands on robot 0 and the
	// sampler flips the coins of the other two.
	var survivors []robotSpec
	for i := f; i < n; i++ {
		survivors = append(survivors, planSpec(plan, i, x, 1, plan.Model().P))
	}
	mean, stdErr := sampleDetection(t, survivors, x, 20000, 11)
	if diff := math.Abs(mean - fleet); diff > 5*stdErr {
		t.Errorf("analytic %g vs MC %g +- %g: off by %.1f sigma",
			fleet, mean, stdErr, diff/stdErr)
	}
}

// BenchmarkExpectedDetectionTime sums the analytic series for a mixed
// fleet near (but safely inside) the convergence boundary.
func BenchmarkExpectedDetectionTime(b *testing.B) {
	specs := []robotSpec{
		halfLineSpec(b, 1, 2, 33, 1, 0.6),
		halfLineSpec(b, 1, 2, 33, 2, 0.4),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := expectedDetectionTime(specs, 33.0); math.IsInf(v, 1) {
			b.Fatal("diverged")
		}
	}
}
