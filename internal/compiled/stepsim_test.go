package compiled_test

// The discrete-time stepping engine below is a deliberately independent
// implementation of the search model, used to cross-validate the exact
// closed-form evaluators (internal/sim and this package's kernel).
//
// Where those answer "when does robot i first visit x" by solving each
// motion segment analytically, the stepping engine takes only the
// polyline corner points of each robot, samples positions on a fixed
// time grid with its own interpolation code, and detects target visits
// by sign changes between consecutive samples. Agreement between the
// engines (within O(dt)) rules out systematic errors in the visit
// solver, the distinct-visitor ordering, and the (f+1)-st-visit rule.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"linesearch/internal/geom"
	"linesearch/internal/numeric"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
	"linesearch/internal/trajectory"
)

// stepRobot is one searcher, specified purely by the corner points of its
// space–time polyline (time strictly increasing, speed at most 1).
// Beyond the final corner the robot halts.
type stepRobot struct {
	corners []geom.Point
}

// newStepRobot validates and wraps a corner polyline.
func newStepRobot(corners []geom.Point) (*stepRobot, error) {
	if len(corners) < 2 {
		return nil, fmt.Errorf("stepsim: robot needs at least 2 corners, got %d", len(corners))
	}
	for i := 1; i < len(corners); i++ {
		dt := corners[i].T - corners[i-1].T
		dx := math.Abs(corners[i].X - corners[i-1].X)
		if dt < 0 {
			return nil, fmt.Errorf("stepsim: corner %d runs backward in time", i)
		}
		if dx > dt*(1+1e-9)+1e-9 {
			return nil, fmt.Errorf("stepsim: corner %d exceeds unit speed", i)
		}
	}
	return &stepRobot{corners: append([]geom.Point(nil), corners...)}, nil
}

// positionAt interpolates the polyline at time t (its own code path,
// independent of internal/trajectory). Before the first corner the
// robot sits at the first corner's position; after the last, at the
// last.
func (r *stepRobot) positionAt(t float64) float64 {
	cs := r.corners
	if t <= cs[0].T {
		return cs[0].X
	}
	last := cs[len(cs)-1]
	if t >= last.T {
		return last.X
	}
	// Binary search for the segment containing t.
	idx := sort.Search(len(cs), func(i int) bool { return cs[i].T >= t })
	a, b := cs[idx-1], cs[idx]
	if b.T == a.T {
		return b.X
	}
	frac := (t - a.T) / (b.T - a.T)
	return a.X + frac*(b.X-a.X)
}

// stepEngine steps a set of robots on a shared clock.
type stepEngine struct {
	robots []*stepRobot
	dt     float64
}

// newStepEngine creates a stepping world with time resolution dt.
func newStepEngine(robots []*stepRobot, dt float64) (*stepEngine, error) {
	if len(robots) == 0 {
		return nil, fmt.Errorf("stepsim: world needs at least one robot")
	}
	if !(dt > 0) || math.IsInf(dt, 0) {
		return nil, fmt.Errorf("stepsim: invalid time step %g", dt)
	}
	for i, r := range robots {
		if r == nil {
			return nil, fmt.Errorf("stepsim: robot %d is nil", i)
		}
	}
	return &stepEngine{robots: append([]*stepRobot(nil), robots...), dt: dt}, nil
}

// stepVisit records a robot's first detected arrival at the target.
type stepVisit struct {
	Robot int
	T     float64
}

// firstVisits steps the world until tmax and returns, per robot that
// crosses x, the (interpolated) time of its first crossing, sorted by
// time. A crossing is a sign change of position-minus-target between
// consecutive ticks, or an exact hit on a tick.
func (w *stepEngine) firstVisits(x, tmax float64) []stepVisit {
	visits := make([]stepVisit, 0, len(w.robots))
	for i, r := range w.robots {
		if t, ok := w.firstCrossing(r, x, tmax); ok {
			visits = append(visits, stepVisit{Robot: i, T: t})
		}
	}
	sort.Slice(visits, func(a, b int) bool {
		if visits[a].T != visits[b].T {
			return visits[a].T < visits[b].T
		}
		return visits[a].Robot < visits[b].Robot
	})
	return visits
}

// firstCrossing scans the robot's sampled motion for the first crossing
// of x. Sample times are the grid ticks merged with the robot's corner
// times: sampling exactly at corners makes tangent sweeps (a turn just
// past x between two ticks) detectable, since between consecutive
// samples the motion is then strictly linear.
func (w *stepEngine) firstCrossing(r *stepRobot, x, tmax float64) (float64, bool) {
	prevT := 0.0
	prevD := r.positionAt(0) - x
	if prevD == 0 {
		return 0, true
	}
	corner := 0
	for _, c := range r.corners {
		if c.T <= 0 {
			corner++
		}
	}
	tick := 1
	for {
		// Next sample: the earlier of the next grid tick and the next
		// corner time.
		t := float64(tick) * w.dt
		fromCorner := false
		if corner < len(r.corners) && r.corners[corner].T < t {
			t = r.corners[corner].T
			fromCorner = true
		}
		if t > tmax {
			return 0, false
		}
		d := r.positionAt(t) - x
		if d == 0 {
			return t, true
		}
		if (prevD < 0) != (d < 0) {
			// Linear interpolation of the crossing instant.
			frac := prevD / (prevD - d)
			return prevT + frac*(t-prevT), true
		}
		prevT, prevD = t, d
		if fromCorner {
			corner++
		} else {
			tick++
		}
	}
}

// searchTime returns the worst-case detection time for a target at x
// with fault budget f: the (f+1)-st distinct robot's first crossing.
// +Inf means fewer than f+1 robots crossed x by tmax.
func (w *stepEngine) searchTime(x float64, f int, tmax float64) (float64, error) {
	if f < 0 || f >= len(w.robots) {
		return 0, fmt.Errorf("stepsim: fault budget %d out of range [0, %d)", f, len(w.robots))
	}
	visits := w.firstVisits(x, tmax)
	if len(visits) <= f {
		return math.Inf(1), nil
	}
	return visits[f].T, nil
}

func TestStepsimNewRobotValidation(t *testing.T) {
	if _, err := newStepRobot([]geom.Point{{X: 0, T: 0}}); err == nil {
		t.Error("single corner accepted")
	}
	if _, err := newStepRobot([]geom.Point{{X: 0, T: 1}, {X: 1, T: 0}}); err == nil {
		t.Error("time reversal accepted")
	}
	if _, err := newStepRobot([]geom.Point{{X: 0, T: 0}, {X: 5, T: 1}}); err == nil {
		t.Error("superluminal segment accepted")
	}
	if _, err := newStepRobot([]geom.Point{{X: 0, T: 0}, {X: 1, T: 1}}); err != nil {
		t.Errorf("valid robot rejected: %v", err)
	}
}

func TestStepsimNewWorldValidation(t *testing.T) {
	r, err := newStepRobot([]geom.Point{{X: 0, T: 0}, {X: 1, T: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newStepEngine(nil, 0.1); err == nil {
		t.Error("empty world accepted")
	}
	if _, err := newStepEngine([]*stepRobot{r}, 0); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := newStepEngine([]*stepRobot{nil}, 0.1); err == nil {
		t.Error("nil robot accepted")
	}
}

func TestStepsimPositionInterpolation(t *testing.T) {
	r, err := newStepRobot([]geom.Point{{X: 0, T: 0}, {X: 0, T: 2}, {X: 2, T: 4}, {X: -1, T: 7}})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		t, want float64
	}{
		{-1, 0}, {0, 0}, {1, 0}, {2, 0}, {3, 1}, {4, 2}, {5.5, 0.5}, {7, -1}, {100, -1},
	}
	for _, tt := range tests {
		if got := r.positionAt(tt.t); !numeric.AlmostEqual(got, tt.want, 1e-9) {
			t.Errorf("positionAt(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

func TestStepsimFirstVisitsSimplePlan(t *testing.T) {
	// Two robots sweep opposite directions from the origin.
	right, err := newStepRobot([]geom.Point{{X: 0, T: 0}, {X: 100, T: 100}})
	if err != nil {
		t.Fatal(err)
	}
	left, err := newStepRobot([]geom.Point{{X: 0, T: 0}, {X: -100, T: 100}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := newStepEngine([]*stepRobot{right, left}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	visits := w.firstVisits(7, 100)
	if len(visits) != 1 || visits[0].Robot != 0 || !numeric.AlmostEqual(visits[0].T, 7, 1e-9) {
		t.Errorf("visits = %v", visits)
	}
	st, err := w.searchTime(7, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(st, 7, 1e-9) {
		t.Errorf("SearchTime = %v", st)
	}
	// With one fault the lone visitor is insufficient.
	st, err = w.searchTime(7, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(st, 1) {
		t.Errorf("SearchTime with f=1 = %v, want +Inf", st)
	}
}

func TestStepsimSearchTimeValidation(t *testing.T) {
	r, err := newStepRobot([]geom.Point{{X: 0, T: 0}, {X: 1, T: 1}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := newStepEngine([]*stepRobot{r}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.searchTime(0.5, 1, 10); err == nil {
		t.Error("fault budget >= robots accepted")
	}
	if _, err := w.searchTime(0.5, -1, 10); err == nil {
		t.Error("negative fault budget accepted")
	}
}

func TestStepsimTangentSweepDetected(t *testing.T) {
	// The robot turns at x = 1.0005, between grid ticks (dt = 0.1); the
	// target x = 1 is crossed only within that narrow excursion. Corner
	// sampling must catch it.
	r, err := newStepRobot([]geom.Point{{X: 0, T: 0}, {X: 1.0005, T: 1.0005}, {X: 0, T: 2.001}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := newStepEngine([]*stepRobot{r}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	visits := w.firstVisits(1, 10)
	if len(visits) != 1 {
		t.Fatalf("tangent sweep missed: %v", visits)
	}
	if !numeric.AlmostEqual(visits[0].T, 1, 1e-9) {
		t.Errorf("crossing at t = %v, want 1", visits[0].T)
	}
}

// worldFromStrategy converts a strategy's trajectories (truncated at
// tmax) into stepsim robots via their corner polylines.
func worldFromStrategy(t *testing.T, st strategy.Strategy, n, f int, tmax, dt float64) (*stepEngine, *sim.Plan) {
	t.Helper()
	plan, err := sim.FromStrategy(st, n, f)
	if err != nil {
		t.Fatal(err)
	}
	robots := make([]*stepRobot, 0, n)
	for _, tr := range plan.Trajectories() {
		corners := cornersUntil(tr, tmax)
		r, err := newStepRobot(corners)
		if err != nil {
			t.Fatal(err)
		}
		robots = append(robots, r)
	}
	w, err := newStepEngine(robots, dt)
	if err != nil {
		t.Fatal(err)
	}
	return w, plan
}

// TestStepsimCrossValidationAgainstExactEngine is the point of the engine:
// the independent stepping engine must agree with the closed-form
// engine on worst-case search times for the paper's algorithm, the
// baseline, and random targets.
func TestStepsimCrossValidationAgainstExactEngine(t *testing.T) {
	cases := []struct {
		st   strategy.Strategy
		n, f int
	}{
		{strategy.Proportional{}, 3, 1},
		{strategy.Proportional{}, 5, 2},
		{strategy.Proportional{}, 5, 3},
		{strategy.Doubling{}, 3, 1},
	}
	const tmax = 1e4
	rng := rand.New(rand.NewSource(2016))
	for _, c := range cases {
		w, plan := worldFromStrategy(t, c.st, c.n, c.f, 4*tmax, 0.25)
		for trial := 0; trial < 60; trial++ {
			x := 1 + rng.Float64()*200
			if rng.Intn(2) == 0 {
				x = -x
			}
			want := plan.SearchTime(x)
			got, err := w.searchTime(x, c.f, 4*tmax)
			if err != nil {
				t.Fatal(err)
			}
			if !numeric.AlmostEqual(got, want, 1e-6) {
				t.Errorf("%s(%d,%d) x=%v: stepsim %v, exact %v", c.st.Name(), c.n, c.f, x, got, want)
			}
		}
	}
}

// TestStepsimCrossValidationFirstVisitOrder: both engines must agree on the
// order in which distinct robots reach the target.
func TestStepsimCrossValidationFirstVisitOrder(t *testing.T) {
	w, plan := worldFromStrategy(t, strategy.Proportional{}, 5, 2, 1e4, 0.25)
	for _, x := range []float64{1.5, -2.25, 17, -33.3, 250} {
		exact := plan.FirstVisits(x)
		stepped := w.firstVisits(x, 1e4)
		if len(exact) != len(stepped) {
			t.Fatalf("x=%v: %d vs %d visitors", x, len(exact), len(stepped))
		}
		for i := range exact {
			if exact[i].Robot != stepped[i].Robot {
				t.Errorf("x=%v: visitor %d is robot %d (exact) vs %d (stepped)", x, i, exact[i].Robot, stepped[i].Robot)
			}
			if !numeric.AlmostEqual(exact[i].T, stepped[i].T, 1e-6) {
				t.Errorf("x=%v: visit %d at %v (exact) vs %v (stepped)", x, i, exact[i].T, stepped[i].T)
			}
		}
	}
}

// cornersUntil reduces a trajectory to its polyline corners up to tmax,
// the only input the stepping engine takes.
func cornersUntil(tr *trajectory.Trajectory, tmax float64) []geom.Point {
	segs := tr.SegmentsUntil(tmax)
	if len(segs) == 0 {
		return nil
	}
	corners := []geom.Point{segs[0].From}
	for _, s := range segs {
		corners = append(corners, s.To)
	}
	return corners
}
