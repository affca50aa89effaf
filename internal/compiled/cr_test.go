package compiled_test

import (
	"fmt"
	"math"
	"testing"

	"linesearch/internal/compiled"
	"linesearch/internal/numeric"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
)

// oracleCandidates is the competitive-ratio search's candidate list
// built from the sim plan's trajectories: every corner of every
// robot's motion segments up to 20·XMax with XMin <= |x| <= XMax,
// probed at x·(1+Eps), then the geometric grid on both half lines.
// opts must be valid, with its defaults filled.
func oracleCandidates(plan *sim.Plan, opts compiled.CROptions) []float64 {
	inRange := func(x float64) bool {
		a := math.Abs(x)
		return a >= opts.XMin && a <= opts.XMax
	}
	var out []float64
	corner := func(x float64) {
		if probe := x * (1 + opts.Eps); inRange(x) && inRange(probe) {
			out = append(out, probe)
		}
	}
	for _, tr := range plan.Trajectories() {
		for i, s := range tr.SegmentsUntil(20 * opts.XMax) {
			if i == 0 {
				corner(s.From.X)
			}
			corner(s.To.X)
		}
	}
	for _, x := range numeric.Logspace(opts.XMin, opts.XMax, opts.GridPoints) {
		if inRange(x) {
			out = append(out, x)
		}
		if inRange(-x) {
			out = append(out, -x)
		}
	}
	return out
}

// simCR is the reference competitive-ratio search: every oracle
// candidate evaluated through the exact sim.Plan.SearchTime, the first
// candidate attaining the supremum being the witness.
func simCR(plan *sim.Plan, opts compiled.CROptions) compiled.CRResult {
	candidates := oracleCandidates(plan, opts.WithDefaults())
	res := compiled.CRResult{Sup: math.Inf(-1), Candidates: len(candidates)}
	for _, x := range candidates {
		if r := plan.SearchTime(x) / math.Abs(x); r > res.Sup {
			res.Sup, res.ArgX = r, x
		}
	}
	return res
}

// sameCR reports whether two searches agree bit for bit.
func sameCR(a, b compiled.CRResult) bool {
	return math.Float64bits(a.Sup) == math.Float64bits(b.Sup) &&
		math.Float64bits(a.ArgX) == math.Float64bits(b.ArgX) && a.Candidates == b.Candidates
}

// TestCRMatchesSim checks that the production competitive-ratio
// search, on the kernel compiled.FromStrategy builds and over the
// candidates of its own corner walk, reproduces the reference search
// over the sim plan's trajectories bit for bit: same supremum, same
// witness, same candidate count. It covers every strategy family (the
// zig-zag schedules compiled from their closed form, the others from
// trajectories), minimal distances from 1e-7 to 1e300 and custom
// ranges, grids, probe offsets and worker counts.
func TestCRMatchesSim(t *testing.T) {
	cases := []struct {
		name string
		n, f int
	}{
		{"proportional", 3, 1},
		{"proportional", 8, 5},
		{"twogroup", 6, 2},
		{"doubling", 4, 2},
		{"cone:2.5", 5, 2},
		{"cone:1.000001", 3, 1},
		{"uniform:1.5", 3, 1},
		{"uniform:100", 4, 2},
		{"uniform:1.002", 5, 3},
		{"pfaulty:0.3", 3, 1},
		{"byzantine", 5, 1},
		{"byzantine:doubling", 5, 1},
		{"byzantine@2:uniform:2", 5, 1},
	}
	for _, c := range cases {
		base, err := strategy.Parse(c.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []float64{1, 1e-7, 3.5, 1e300} {
			st := strategy.WithMinDistance(base, d)
			plan, err := sim.FromStrategy(st, c.n, c.f)
			cp, cerr := compiled.FromStrategy(st, c.n, c.f)
			if fmt.Sprint(err) != fmt.Sprint(cerr) {
				t.Fatalf("%s(%d,%d) mindist %g: sim error %v, kernel error %v", c.name, c.n, c.f, d, err, cerr)
			}
			if err != nil {
				continue // a cone too flat for the float64 range at this distance
			}
			for _, opts := range []compiled.CROptions{
				{XMin: d, GridPoints: 512},
				{XMin: d, XMax: 300 * d, GridPoints: 64, Eps: 1e-6, Parallelism: 1},
				{XMin: 2 * d, XMax: 1e6 * d, GridPoints: 2, Parallelism: 3},
				{GridPoints: 16, Eps: 0.25},
			} {
				want := simCR(plan, opts)
				got, err := cp.CR(opts)
				if err != nil {
					t.Fatal(err)
				}
				if !sameCR(got, want) {
					t.Errorf("%s(%d,%d) mindist %g %+v: compiled CR %+v != sim %+v", c.name, c.n, c.f, d, opts, got, want)
				}
			}
		}
	}
}

// TestCRRejectsBadOptions pins the search's refusals and their texts.
func TestCRRejectsBadOptions(t *testing.T) {
	cp, err := compiled.FromStrategy(strategy.Proportional{}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		opts compiled.CROptions
		want string
	}{
		{compiled.CROptions{XMin: -1}, "sim: CROptions.XMin must be positive, got -1"},
		{compiled.CROptions{XMin: 10, XMax: 5}, "sim: CROptions.XMax (5) must exceed XMin (10)"},
		{compiled.CROptions{GridPoints: 1}, "sim: CROptions.GridPoints must be >= 2, got 1"},
		{compiled.CROptions{Eps: 2}, "sim: CROptions.Eps must be in (0, 1), got 2"},
		{compiled.CROptions{Parallelism: -2}, "sim: CROptions.Parallelism must be >= 1, got -2"},
		{compiled.CROptions{XMax: math.NaN()}, "sim: no evaluable targets in [1, NaN]"},
		{compiled.CROptions{XMin: 7e307}, "sim: CROptions.XMax must be finite, got +Inf"},
	} {
		if _, err := cp.CR(c.opts); fmt.Sprint(err) != c.want {
			t.Errorf("CR(%+v) error %v, want %s", c.opts, err, c.want)
		}
	}
}
