package compiled_test

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"linesearch/internal/compiled"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
)

// benchPlan is the canonical benchmark subject: the paper's A(5, 2)
// proportional schedule, a mid-size plan with non-trivial zig-zags.
func benchPlan(b *testing.B) (*sim.Plan, *compiled.Plan) {
	b.Helper()
	plan, err := sim.FromStrategy(strategy.Proportional{}, 5, 2)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := compiled.Compile(plan)
	if err != nil {
		b.Fatal(err)
	}
	return plan, cp
}

// benchTargets returns size log-spaced targets in [1, 10^4], sign
// alternating, sorted ascending — the shape of a CR-curve evaluation.
func benchTargets(size int) []float64 {
	xs := make([]float64, size)
	for i := range xs {
		x := math.Pow(10, 4*float64(i)/float64(max(size-1, 1)))
		if i%2 == 1 {
			x = -x
		}
		xs[i] = x
	}
	// Ascending order exercises the kernel's hint-reuse fast path the
	// way sorted curve grids do.
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		if xs[i] > xs[j] {
			xs[i], xs[j] = xs[j], xs[i]
		}
	}
	return xs
}

// BenchmarkCompileCold measures plan flattening (the one-time cost paid
// at Searcher construction) on proportional plans A(n, n/2). Its
// allocations do not grow with n: one arena holds every robot's corners.
func BenchmarkCompileCold(b *testing.B) {
	for _, n := range []int{5, 101, 1001} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			plan, err := sim.FromStrategy(strategy.Proportional{}, n, n/2)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := compiled.Compile(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileScheduleCold measures the build a Searcher does for a
// zig-zag schedule, on the plans of BenchmarkCompileCold: every robot's
// closed form (sim.Schedule), then the arena compiled straight from it,
// with no trajectory built. Its allocations do not grow with n either.
func BenchmarkCompileScheduleCold(b *testing.B) {
	for _, n := range []int{5, 101, 1001} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, m, ok, err := sim.Schedule(strategy.Proportional{}, n, n/2)
				if err != nil || !ok {
					b.Fatal(ok, err)
				}
				compiled.CompileSchedule(s, m)
			}
		})
	}
}

// BenchmarkSearchTimeHot measures one steady-state worst-case query
// through a held evaluator.
func BenchmarkSearchTimeHot(b *testing.B) {
	_, cp := benchPlan(b)
	e := cp.Evaluator()
	defer e.Release()
	xs := benchTargets(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.SearchTime(xs[i%len(xs)]) <= 0 {
			b.Fatal("bad search time")
		}
	}
}

// BenchmarkSearchTimeLargeN is BenchmarkSearchTimeHot on wide
// proportional plans A(n, n/2), where rank f+1 sits mid-buffer: each
// query gathers n first visits and selects among them, so its cost
// must stay linear in n.
func BenchmarkSearchTimeLargeN(b *testing.B) {
	for _, n := range []int{101, 1001, 10001} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			plan, err := sim.FromStrategy(strategy.Proportional{}, n, n/2)
			if err != nil {
				b.Fatal(err)
			}
			cp, err := compiled.Compile(plan)
			if err != nil {
				b.Fatal(err)
			}
			e := cp.Evaluator()
			defer e.Release()
			xs := benchTargets(64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if e.SearchTime(xs[i%len(xs)]) <= 0 {
					b.Fatal("bad search time")
				}
			}
		})
	}
}

// BenchmarkSearchTimeFar measures one query far beyond every robot's
// compiled corners, A(1001, 1000) at x = 1e300, where each of the 1001
// robots answers through its zig-zag tail's closed form.
func BenchmarkSearchTimeFar(b *testing.B) {
	plan, err := sim.FromStrategy(strategy.Proportional{}, 1001, 1000)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := compiled.Compile(plan)
	if err != nil {
		b.Fatal(err)
	}
	e := cp.Evaluator()
	defer e.Release()
	for range 16 { // past the phase table's build, which cannot answer here
		e.SearchTime(1e300)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t := e.SearchTime(1e300); !(t > 0) || math.IsInf(t, 0) {
			b.Fatalf("bad search time %v", t)
		}
	}
}

// BenchmarkCompiledBatch measures EvalMany over sorted curve grids of
// increasing size; per-op cost should be linear in the batch with zero
// allocations.
func BenchmarkCompiledBatch(b *testing.B) {
	_, cp := benchPlan(b)
	for _, size := range []int{1, 100, 10000} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			e := cp.Evaluator()
			defer e.Release()
			xs := benchTargets(size)
			dst := make([]float64, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = e.EvalMany(xs, dst)
			}
		})
	}
}

// BenchmarkCompiledBatchCtx is BenchmarkCompiledBatch through the
// context-aware entry point with an untraced context: the telemetry
// hooks must stay within noise of the plain path and allocate nothing.
func BenchmarkCompiledBatchCtx(b *testing.B) {
	_, cp := benchPlan(b)
	ctx := context.Background()
	for _, size := range []int{1, 100, 10000} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			xs := benchTargets(size)
			dst := make([]float64, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cp.EvalManyCtx(ctx, xs, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimBatch is the pre-kernel reference: the same grids through
// sim.Plan.SearchTime (per-call visit collection and sorting).
func BenchmarkSimBatch(b *testing.B) {
	plan, _ := benchPlan(b)
	for _, size := range []int{1, 100, 10000} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			xs := benchTargets(size)
			dst := make([]float64, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, x := range xs {
					dst[j] = plan.SearchTime(x)
				}
			}
		})
	}
}

// BenchmarkSweepCellCompiled measures one sweep grid cell's CR search
// through the compiled kernel (the internal/sweep evaluation path).
func BenchmarkSweepCellCompiled(b *testing.B) {
	_, cp := benchPlan(b)
	opts := compiled.CROptions{GridPoints: 256, Parallelism: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.CR(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepCellSim is the same cell through the reference search
// over sim.Plan.SearchTime.
func BenchmarkSweepCellSim(b *testing.B) {
	plan, _ := benchPlan(b)
	opts := compiled.CROptions{GridPoints: 256, Parallelism: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simCR(plan, opts)
	}
}

// BenchmarkEvalManyCurve is the kernel under perfbench's curve-batch
// workload: one op evaluates a 1000-target curve (sorted, |x| drawn
// uniformly in [1, 1000] with a random sign) on each of its six warm
// plans, A(21,10), A(21,14), A(31,16), A(31,24), A(41,21) and
// A(41,30). The plans' phase tables are built before the timer starts,
// as they are on a warm daemon.
func BenchmarkEvalManyCurve(b *testing.B) {
	keys := [][2]int{{21, 10}, {21, 14}, {31, 16}, {31, 24}, {41, 21}, {41, 30}}
	rng := rand.New(rand.NewPCG(1, 2))
	evals := make([]*compiled.Evaluator, len(keys))
	curves := make([][]float64, len(keys))
	for i, key := range keys {
		plan, err := sim.FromStrategy(strategy.Proportional{}, key[0], key[1])
		if err != nil {
			b.Fatal(err)
		}
		cp, err := compiled.Compile(plan)
		if err != nil {
			b.Fatal(err)
		}
		xs := make([]float64, 1000)
		for j := range xs {
			xs[j] = 1 + 999*rng.Float64()
			if rng.IntN(2) == 0 {
				xs[j] = -xs[j]
			}
		}
		slices.Sort(xs)
		evals[i], curves[i] = cp.Evaluator(), xs
		defer evals[i].Release()
		evals[i].EvalMany(xs, nil) // scans its first targets, then builds the table
	}
	dst := make([]float64, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, e := range evals {
			dst = e.EvalMany(curves[j], dst)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)*1000), "ns/target")
}
