package engine

import (
	"context"
	"math"
	"testing"

	"linesearch/internal/fault"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
)

// benchPlanEngine builds a worst-case-assignment engine for a compiled
// strategy, mirroring the differential-test setup.
func benchPlanEngine(b *testing.B, spec string, n, f int, x float64) *Engine {
	b.Helper()
	st, err := strategy.Parse(spec)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sim.FromStrategy(st, n, f)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := FromPlan(plan, plan.WorstFaultAssignment(x), Options{})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkEngineDispatch measures steady-state event dispatch on a
// deterministic fleet: the per-op alloc figure divided by the reported
// events/op metric is the allocs-per-event gate (must stay <= 1; the
// caches hold it at 0).
func BenchmarkEngineDispatch(b *testing.B) {
	const x = 137.0
	eng := benchPlanEngine(b, "proportional", 5, 2, x)
	stream := NewStream(42)
	res, err := eng.Search(x, stream) // warm the visit/segment caches
	if err != nil {
		b.Fatal(err)
	}
	events := res.Events
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(x, stream); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkEngineSearchPFaulty runs the stochastic path: coin flips,
// visit-stream walking and retries on a p-faulty half-line fleet.
func BenchmarkEngineSearchPFaulty(b *testing.B) {
	tr := halfLineTraj(b, 1, 2)
	eng, err := New([]RobotSpec{
		{Traj: tr, Kind: fault.PFaulty, P: 0.5},
		{Traj: tr, Kind: fault.PFaulty, P: 0.3, Speed: 1.5},
	}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	root := NewStream(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(25.0, root.Split(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineMonteCarlo is the full sampled-estimate path: worker
// fan-out, per-trial stream splits, reduction. Parallelism is pinned
// because every worker builds its own Engine: at the GOMAXPROCS default
// allocs/op would scale with the machine's core count, and the
// allocation gate compares against one checked-in baseline.
func BenchmarkEngineMonteCarlo(b *testing.B) {
	tr := halfLineTraj(b, 1, 2)
	specs := []RobotSpec{
		{Traj: tr, Kind: fault.PFaulty, P: 0.5},
		{Traj: tr, Kind: fault.Crash},
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := MonteCarlo(ctx, specs, Options{}, MCConfig{X: 9.5, Trials: 256, Seed: int64(i), Parallelism: 2})
		if err != nil {
			b.Fatal(err)
		}
		if math.IsInf(res.Mean, 1) {
			b.Fatal("undetected")
		}
	}
}

// BenchmarkExpectedDetectionTime sums the analytic series for a mixed
// fleet near (but safely inside) the convergence boundary.
func BenchmarkExpectedDetectionTime(b *testing.B) {
	tr := halfLineTraj(b, 1, 2)
	specs := []RobotSpec{
		{Traj: tr, Kind: fault.PFaulty, P: 0.6},
		{Traj: tr, Kind: fault.PFaulty, P: 0.4, Speed: 2},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := ExpectedDetectionTime(specs, 1, 33.0, ExpectedOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if math.IsInf(v, 1) {
			b.Fatal("diverged")
		}
	}
}
