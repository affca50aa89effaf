package compiled

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"linesearch/internal/fault"
	"linesearch/internal/schedule"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
)

// walkLimit cuts the corner walks the schedule fuzzer compares.
const walkLimit = 256

// FuzzCompileFromSchedule checks that a zig-zag schedule compiled from
// its closed form (sim.Schedule, then CompileSchedule) is the plan
// Compile makes of sim.FromStrategy's trajectories, bit for bit: every
// robot's stored corners and envelope, turn count, tail parameters and
// power table, the tail itself and the detected symmetry, and the
// same corner walk, cut at walkLimit points. Both paths must refuse
// the same keys with the same error. Inputs: proportional, cone or
// uniform at a fuzzed slope (every slope strategy.Parse accepts), or
// the Byzantine rule over any of them or over the pair's
// recommendation; n <= 64; any f up to 64; mindist from 1e-300 to
// 1e307 (10^lg); the waiting or, but for uniform, the slow start-up.
//
// The two kernels must also answer the questions that follow robots
// past their first visits alike (sameFollowUps): the expected-time
// series and the timeline at a target of xs mindists, with miss
// probability miss, speeds and a fault set from bytes, and a horizon of
// ts mindists.
func FuzzCompileFromSchedule(fz *testing.F) {
	for _, s := range []struct {
		kind        uint8
		slope       float64
		byz         bool
		votes, n, f uint8
		lg          float64
		slow        bool
		xs, miss    float64
		speeds, set []byte
		ts          float64
	}{
		{0, 0, false, 0, 3, 1, 0, false, 7.5, 0.25, []byte{16, 4, 64}, []byte{0}, 40},
		{0, 0, false, 0, 64, 40, -300, false, -3, 0, nil, nil, 10},
		{0, 0, false, 0, 41, 21, 307, false, 1.5, 0.5, []byte{32}, []byte{1, 2}, 1e3},
		{0, 0, false, 0, 5, 2, 0, true, -12.25, 0.1, []byte{8, 64, 32, 32, 16}, []byte{3}, 100},
		{1, 2.5, false, 0, 7, 3, 0.5, false, 2.5198420997897464, 0.3, nil, []byte{4, 5, 6}, 60},
		{1, 1 + 1e-15, false, 0, 4, 2, -12, false, 5, 0, []byte{16}, nil, 20},
		{1, 6.19e12, false, 0, 9, 4, 300, true, -1e6, 0.2, nil, []byte{0}, 1e9},
		{1, 6.19e12, false, 0, 9, 4, 0, true, 1e308, 0, []byte{0}, nil, 1e308},
		{1, 3, true, 2, 9, 3, 0, false, 4.5, 0, nil, []byte{128, 8}, 80},
		{0, 0, true, 0, 9, 2, 1, false, -7, 0.25, nil, []byte{131, 1}, 300},
		{2, 0, true, 0, 20, 3, 0, false, 9, 0, nil, []byte{129}, 50},
		{2, 0, true, 1, 5, 2, 0, true, -2, 0, nil, []byte{2, 3}, 30},
		{0, 0, false, 0, 2, 2, 0, false, 1, 0, nil, nil, 1},
		{0, 0, false, 0, 5, 0, 0, false, 3, 0.7, []byte{255}, nil, 25},
		{3, 1.5, false, 0, 3, 1, 0, false, -5, 0.25, []byte{16, 20, 24}, []byte{0}, 13.7},
		{3, 100, false, 0, 8, 5, 0, false, 40, 0.1, nil, []byte{1}, 1e4},
		{3, 1.002, false, 0, 64, 40, -7, false, 2, 0.05, nil, nil, 5},
		{3, 1 + 1e-15, false, 0, 9, 4, 306, false, -1, 0, nil, nil, 3},
		{3, 6.19e12, true, 2, 9, 3, 300, false, 3, 0, nil, []byte{130}, 1e6},
		{3, 2, true, 2, 5, 1, 307, false, -1, 0, nil, []byte{128}, 10},
		{3, 1.5, false, 0, 4, 1, 0, false, 7, 0.5, []byte{0, 16, 16, 16}, []byte{2}, 0},
	} {
		fz.Add(s.kind, s.slope, s.byz, s.votes, s.n, s.f, s.lg, s.slow, s.xs, s.miss, s.speeds, s.set, s.ts)
	}
	fz.Fuzz(func(t *testing.T, kind uint8, slope float64, byz bool, votes, nb, fb uint8, lg float64, slow bool,
		xs, miss float64, speeds, set []byte, ts float64) {
		n, f := max(int(nb)%65, 1), int(fb)%65
		if math.IsNaN(lg) {
			lg = 0
		}
		dmin := math.Pow(10, min(max(lg, -300), 307))
		var base strategy.Strategy
		switch kind % 4 {
		case 0:
			base = strategy.Proportional{}
		case 1, 3:
			family := "cone:"
			if kind%4 == 3 {
				family = "uniform:"
			}
			st, err := strategy.Parse(family + strconv.FormatFloat(slope, 'g', -1, 64))
			if err != nil {
				return // not a slope the strategy accepts
			}
			base = st
		}
		var st strategy.Strategy = base
		if byz || base == nil {
			st = strategy.Byzantine{Votes: int(votes) % 4, Base: base}
		}
		st = strategy.WithMinDistance(st, dmin)

		sched, model, ok, err := sim.Schedule(st, n, f)
		plan, perr := sim.FromStrategy(st, n, f)
		if fmt.Sprint(err) != fmt.Sprint(perr) {
			t.Fatalf("%s(%d, %d): schedule error %v, sim error %v", st.Name(), n, f, err, perr)
		}
		if err != nil {
			return
		}
		if !ok {
			// Only the Byzantine rule over a pair recommendation that is
			// no zig-zag (the two-group sweep) has no closed form.
			if base != nil {
				t.Fatalf("%s(%d, %d): no schedule", st.Name(), n, f)
			}
			return
		}
		if _, uniform := base.(strategy.UniformCone); slow && !uniform {
			// The strategies start with the wait; the slow start-up is
			// compared on the same schedule built with the other style.
			sched, err = schedule.NewStyled(n, model.DetectionRank()-1, sched.Beta(), dmin, schedule.StartupSlow)
			if err != nil {
				return
			}
			if plan, err = sim.NewPlanModel(sched.Trajectories(), model); err != nil {
				t.Fatalf("slow %s(%d, %d): %v", st.Name(), n, f, err)
			}
		}
		want, err := Compile(plan)
		if err != nil {
			t.Fatal(err)
		}
		got := CompileSchedule(sched, model)
		if err := samePlan(got, want); err != nil {
			t.Fatalf("%s(%d, %d) mindist %g slow %v: %v", st.Name(), n, f, dmin, slow, err)
		}
		if err := sameFollowUps(got, want, xs*dmin, miss, speeds, set, ts*dmin); err != nil {
			t.Fatalf("%s(%d, %d) mindist %g slow %v: %v", st.Name(), n, f, dmin, slow, err)
		}
	})
}

// followUpMaxN bounds the fleets whose timelines and p-faulty series
// the schedule fuzzer compares: a cone barely wider than 1 lists up to
// trajectory.MaxTailSegments segments per robot.
const followUpMaxN = 16

// sameFollowUps reports the first difference between two kernels'
// expected-time series and timelines, values compared bit for bit and
// errors by text. Each byte of speedBytes is a speed of byte/16 (so 0,
// which is refused, occurs; none means unit speeds). Each byte of
// setBytes marks robot byte%n faulty, as a liar when its high bit is
// set and the model admits liars. The series is asked at a miss
// probability other than 0 and the timeline only on fleets of at most
// followUpMaxN robots, and the timeline only at a finite target.
func sameFollowUps(got, want *Plan, x, miss float64, speedBytes, setBytes []byte, tmax float64) error {
	n := got.N()
	var speeds []float64
	for _, b := range speedBytes {
		speeds = append(speeds, float64(b)/16)
	}
	if miss == 0 || n <= followUpMaxN {
		g, gerr := got.ExpectedSearchTime(x, miss, speeds)
		w, werr := want.ExpectedSearchTime(x, miss, speeds)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !sameFloats([]float64{g}, []float64{w}) {
			return fmt.Errorf("expected time at x=%g miss=%g speeds %v: %v (%v), want %v (%v)", x, miss, speeds, g, gerr, w, werr)
		}
	}
	if n > followUpMaxN || math.IsNaN(x) || math.IsInf(x, 0) {
		return nil
	}
	m := got.Model()
	set := make(fault.Set, n)
	for _, b := range setBytes {
		set[int(b)%n] = m.WorstKind()
		if b >= 128 && m.Admits(fault.ByzantineLiar) {
			set[int(b)%n] = fault.ByzantineLiar
		}
	}
	g, gerr := got.Timeline(x, set, tmax)
	w, werr := want.Timeline(x, set, tmax)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || len(g) != len(w) {
		return fmt.Errorf("timeline at x=%g tmax=%g: %d events (%v), want %d (%v)", x, tmax, len(g), gerr, len(w), werr)
	}
	for i := range g {
		if g[i].Robot != w[i].Robot || g[i].Kind != w[i].Kind || !sameFloats([]float64{g[i].T, g[i].X}, []float64{w[i].T, w[i].X}) {
			return fmt.Errorf("timeline at x=%g tmax=%g: event %d %v, want %v", x, tmax, i, g[i], w[i])
		}
	}
	return nil
}

// samePlan reports the first difference between two compiled plans:
// their fault models, any robot's view of the arena and its tail, the
// detected symmetry, or any robot's corner walk up to walkLimit points.
func samePlan(got, want *Plan) error {
	if got.model != want.model || len(got.robots) != len(want.robots) {
		return fmt.Errorf("model %v n %d, want model %v n %d", got.model, len(got.robots), want.model, len(want.robots))
	}
	for i := range got.robots {
		if err := sameRobot(&got.robots[i], &want.robots[i]); err != nil {
			return fmt.Errorf("robot %d: %w", i, err)
		}
		if g, w := walkPoints(got, i), walkPoints(want, i); !sameFloats(g, w) {
			return fmt.Errorf("robot %d walks %v, want %v", i, g, w)
		}
	}
	if g, w := fmt.Sprintf("%#v", got.sym), fmt.Sprintf("%#v", want.sym); g != w {
		return fmt.Errorf("symmetry %s, want %s", g, w)
	}
	return nil
}

// sameRobot reports the first difference between two robot views.
func sameRobot(g, w *robot) error {
	switch {
	case !sameFloats(g.corners, w.corners):
		return fmt.Errorf("corners %v, want %v", g.corners, w.corners)
	case !sameFloats(g.pow, w.pow):
		return fmt.Errorf("power table %v, want %v", g.pow, w.pow)
	case !sameFloats([]float64{g.lo, g.hi, g.mag, g.beta, g.anchorT}, []float64{w.lo, w.hi, w.mag, w.beta, w.anchorT}),
		g.turns != w.turns, g.flip != w.flip:
		return fmt.Errorf("lo %g hi %g mag %g beta %g anchorT %g turns %d flip %v, want %g %g %g %g %g %d %v",
			g.lo, g.hi, g.mag, g.beta, g.anchorT, g.turns, g.flip,
			w.lo, w.hi, w.mag, w.beta, w.anchorT, w.turns, w.flip)
	}
	if gs, ws := fmt.Sprintf("%T %+v", g.tail, g.tail), fmt.Sprintf("%T %+v", w.tail, w.tail); gs != ws {
		return fmt.Errorf("tail %s, want %s", gs, ws)
	}
	return nil
}

// walkPoints lists robot i's corner walk without a horizon, cut at
// walkLimit points, as (t, x) pairs.
func walkPoints(p *Plan, i int) []float64 {
	var out []float64
	p.Walk(i, math.MaxFloat64, walkLimit, func(t, x float64) bool {
		out = append(out, t, x)
		return true
	})
	return out
}

// sameFloats reports whether a and b hold the same float64 bits.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
