package compiled_test

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"
	"time"

	"linesearch/internal/compiled"
	"linesearch/internal/fault"
	"linesearch/internal/geom"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
	"linesearch/internal/trajectory"
)

func compilePair(t *testing.T, st strategy.Strategy, n, f int) (*sim.Plan, *compiled.Plan) {
	t.Helper()
	plan, err := sim.FromStrategy(st, n, f)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := compiled.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	return plan, cp
}

func TestCompileRejectsNil(t *testing.T) {
	if _, err := compiled.Compile(nil); err == nil {
		t.Fatal("nil plan accepted")
	}
}

func TestAccessors(t *testing.T) {
	_, cp := compilePair(t, strategy.Proportional{}, 5, 2)
	if cp.Corners() == 0 {
		t.Error("no corners materialised")
	}
}

// TestTwoGroupRayClosedForm checks the ray tail continuation: targets
// far beyond the (empty) corner prefix are answered by the closed form,
// and equal |x| exactly (CR 1).
func TestTwoGroupRayClosedForm(t *testing.T) {
	_, cp := compilePair(t, strategy.TwoGroup{}, 6, 2)
	for _, x := range []float64{1, -1, 3.75, -1234.5, 9e7} {
		if got := cp.SearchTime(x); got != math.Abs(x) {
			t.Errorf("SearchTime(%g) = %v, want %v", x, got, math.Abs(x))
		}
	}
}

// TestHaltNeverVisitsBeyond checks a halting robot, which keeps no
// tail: a finite trajectory visits nothing outside its swept envelope.
func TestHaltNeverVisitsBeyond(t *testing.T) {
	halt, err := trajectory.NewHalt(geom.Point{X: 2, T: 5})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trajectory.New([]geom.Segment{
		{From: geom.Point{X: 0, T: 0}, To: geom.Point{X: -1, T: 1}},
		{From: geom.Point{X: -1, T: 1}, To: geom.Point{X: 2, T: 5}},
	}, halt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sim.NewPlanModel([]*trajectory.Trajectory{tr}, fault.CrashModel(0))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := compiled.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, -0.5, 0, 1.5, 2} {
		want := plan.SearchTime(x)
		if got := cp.SearchTime(x); got != want {
			t.Errorf("SearchTime(%g) = %v, want %v", x, got, want)
		}
		if math.IsInf(cp.SearchTime(x), 1) {
			t.Errorf("covered target %g reported unreachable", x)
		}
	}
	for _, x := range []float64{-1.5, 2.5, 100} {
		if got := cp.SearchTime(x); !math.IsInf(got, 1) {
			t.Errorf("SearchTime(%g) = %v, want +Inf", x, got)
		}
	}
}

func TestKthDistinctVisitValidatesK(t *testing.T) {
	_, cp := compilePair(t, strategy.Proportional{}, 3, 1)
	for _, k := range []int{0, -1, 4, 100} {
		if _, err := cp.KthDistinctVisit(2, k); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
	if _, err := cp.KthDistinctVisit(2, 3); err != nil {
		t.Errorf("k=n rejected: %v", err)
	}
}

// TestEvalManyMatchesSingle checks the batch path (including the
// sorted-targets hint reuse) against one-at-a-time evaluation, in
// sorted, reversed and shuffled orders.
func TestEvalManyMatchesSingle(t *testing.T) {
	plan, cp := compilePair(t, strategy.Proportional{}, 5, 2)

	sorted := make([]float64, 0, 400)
	for i := 0; i < 200; i++ {
		x := math.Pow(10, 4*float64(i)/199)
		sorted = append(sorted, -x, x)
	}
	sort.Float64s(sorted)
	reversed := make([]float64, len(sorted))
	shuffled := make([]float64, len(sorted))
	for i, x := range sorted {
		reversed[len(sorted)-1-i] = x
		shuffled[(i*7919)%len(sorted)] = x
	}

	for name, xs := range map[string][]float64{
		"sorted": sorted, "reversed": reversed, "shuffled": shuffled,
	} {
		got := cp.EvalMany(xs, nil)
		if len(got) != len(xs) {
			t.Fatalf("%s: got %d results for %d targets", name, len(got), len(xs))
		}
		for i, x := range xs {
			want := plan.SearchTime(x)
			if got[i] != want && !(math.IsInf(got[i], 1) && math.IsInf(want, 1)) {
				t.Errorf("%s: EvalMany[%d] (x=%g) = %v, want %v", name, i, x, got[i], want)
			}
		}
	}
}

// TestEvaluatorReuseAcrossTargets checks that a long-lived evaluator
// with warm hints returns the same answers as a fresh one.
func TestEvaluatorReuseAcrossTargets(t *testing.T) {
	plan, cp := compilePair(t, strategy.Doubling{}, 4, 2)
	e := cp.Evaluator()
	defer e.Release()
	xs := []float64{5, -3, 5, 700, -700, 1, 699.5, -2.5}
	for _, x := range xs {
		if got, want := e.SearchTime(x), plan.SearchTime(x); got != want {
			t.Errorf("SearchTime(%g) = %v, want %v", x, got, want)
		}
	}
	// FirstVisit against the underlying trajectories.
	trajs := plan.Trajectories()
	for i, tr := range trajs {
		for _, x := range xs {
			wantT, wantOK := tr.FirstVisit(x)
			gotT, gotOK := e.FirstVisit(i, x)
			if gotOK != wantOK || (wantOK && gotT != wantT) {
				t.Errorf("FirstVisit(%d, %g) = %v,%v want %v,%v", i, x, gotT, gotOK, wantT, wantOK)
			}
		}
	}
	if _, ok := e.FirstVisit(-1, 1); ok {
		t.Error("negative robot index reported a visit")
	}
	if _, ok := e.FirstVisit(len(trajs), 1); ok {
		t.Error("out-of-range robot index reported a visit")
	}
}

// TestSearchTimeZeroAllocs pins the kernel's contract: steady-state
// evaluation through a held evaluator performs no heap allocations.
func TestSearchTimeZeroAllocs(t *testing.T) {
	_, cp := compilePair(t, strategy.Proportional{}, 5, 2)
	e := cp.Evaluator()
	defer e.Release()
	xs := []float64{2, -17.5, 400, -8000}
	dst := make([]float64, len(xs))

	if avg := testing.AllocsPerRun(200, func() {
		if e.SearchTime(437.25) <= 0 {
			t.Fatal("bad search time")
		}
	}); avg != 0 {
		t.Errorf("SearchTime allocates %v per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		dst = e.EvalMany(xs, dst)
	}); avg != 0 {
		t.Errorf("EvalMany allocates %v per op, want 0", avg)
	}
	ctx := context.Background()
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := cp.EvalManyCtx(ctx, xs, dst); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("untraced EvalManyCtx allocates %v per op, want 0", avg)
	}
}

// TestLargePlanMatchesSim checks the kernel against the sorting
// reference engine bit for bit on plans wide enough that selection
// partitions its buffer: at the crash rank f+1 for a spread of targets,
// and at every rank k for one target.
func TestLargePlanMatchesSim(t *testing.T) {
	for _, n := range []int{41, 101, 1001} {
		plan, cp := compilePair(t, strategy.Proportional{}, n, n/2)
		for _, x := range []float64{1, -1.5, 7.5, -40, 1e3, -1e5} {
			if got, want := cp.SearchTime(x), plan.SearchTime(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d: SearchTime(%g) = %v, sim %v", n, x, got, want)
			}
		}
		if n > 101 {
			continue
		}
		for k := 1; k <= n; k++ {
			got, err := cp.KthDistinctVisit(-7.5, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plan.KthDistinctVisit(-7.5, k)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d: KthDistinctVisit(-7.5, %d) = %v, sim %v", n, k, got, want)
			}
		}
	}
}

// TestEvalManyCtxStopsWhenCancelled checks that a curve evaluation on
// a wide plan gives up with the context's error instead of finishing:
// at once for a context cancelled up front, and part-way through for
// one cancelled mid-evaluation. The plan is the uniform-spacing
// ablation, which has no self-similarity, so every target scans all
// 1001 robots and 10000 targets take far longer than the deadline.
func TestEvalManyCtxStopsWhenCancelled(t *testing.T) {
	_, cp := compilePair(t, strategy.UniformCone{Beta: 1.002}, 1001, 500)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(i) + 1
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	got, err := cp.EvalManyCtx(ctx, xs, nil)
	if !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("cancelled context: got %d results, err %v; want nil, context.Canceled", len(got), err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled context took %v to return", d)
	}

	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := cp.EvalManyCtx(ctx, xs, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline mid-evaluation: err %v, want context.DeadlineExceeded", err)
	}
}

// TestSharedTrajectoriesCompileOnce checks the doubling baseline (all
// robots share one trajectory) is deduplicated in the compiled form.
func TestSharedTrajectoriesCompileOnce(t *testing.T) {
	planShared, err := sim.FromStrategy(strategy.Doubling{}, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	cpShared, err := compiled.Compile(planShared)
	if err != nil {
		t.Fatal(err)
	}
	planSingle, err := sim.FromStrategy(strategy.Doubling{}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpSingle, err := compiled.Compile(planSingle)
	if err != nil {
		t.Fatal(err)
	}
	if cpShared.Corners() != cpSingle.Corners() {
		t.Errorf("shared-trajectory plan materialises %d corners, single robot %d",
			cpShared.Corners(), cpSingle.Corners())
	}
}

// TestCompileAllocsIndependentOfN pins the arena layout: Compile makes
// the same few allocations whatever the fleet size, since every
// robot's corners share one arena sized before it is filled.
func TestCompileAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int) float64 {
		plan, err := sim.FromStrategy(strategy.Proportional{}, n, n/2)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := compiled.Compile(plan); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(5), allocs(401); small != large {
		t.Errorf("Compile allocates %v times at n = 5 and %v at n = 401, want equal", small, large)
	}
}
