package compiled_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"linesearch/internal/compiled"
	"linesearch/internal/fault"
	"linesearch/internal/geom"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
	"linesearch/internal/trajectory"
)

// implicitCase is one plan of the derived-tail oracle check, compiled
// with at most cap corners per trajectory.
type implicitCase struct {
	name string
	plan *sim.Plan
	cap  int
}

var (
	implicitOnce  sync.Once
	implicitCases []implicitCase
)

// implicitPlans returns the plans FuzzImplicitTail draws from: every
// tail kind and cone shape the strategies build, a cone whose expansion
// factor is so close to 1 that the corner cap binds, two plans compiled
// with a cap of 8 corners so most targets reach the tails, and a fleet
// whose anchors are kept later than their own times.
func implicitPlans(t testing.TB) []implicitCase {
	implicitOnce.Do(func() {
		type spec struct {
			st   strategy.Strategy
			n, f int
			cap  int
		}
		parse := func(name string) strategy.Strategy {
			st, err := strategy.Parse(name)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		specs := []spec{
			{strategy.Proportional{}, 3, 1, 4096},
			{strategy.Proportional{MinDistance: 1e-3}, 5, 2, 4096},
			{strategy.Proportional{MinDistance: 7.5}, 11, 6, 4096},
			{strategy.Proportional{MinDistance: 1e6}, 21, 10, 4096},
			{parse("cone:1.5"), 5, 2, 4096},
			{parse("cone:1.000001"), 5, 2, 4096},
			{parse("cone:100000"), 5, 2, 4096},
			{parse("uniform:1.5"), 7, 3, 4096},
			{parse("doubling"), 4, 1, 4096},
			{parse("twogroup"), 6, 2, 4096},
			{parse("pfaulty"), 5, 2, 4096},
			{parse("byzantine"), 7, 2, 4096},
			{strategy.Proportional{}, 5, 2, 8},
		}
		for _, s := range specs {
			plan, err := sim.FromStrategy(s.st, s.n, s.f)
			if err != nil {
				t.Fatalf("%s(%d,%d): %v", s.st.Name(), s.n, s.f, err)
			}
			implicitCases = append(implicitCases, implicitCase{fmt.Sprintf("%s(%d,%d)/cap=%d", s.st.Name(), s.n, s.f, s.cap), plan, s.cap})
		}
		mixed := mixedTailPlan(t)
		implicitCases = append(implicitCases,
			implicitCase{"mixed/cap=4096", mixed, 4096},
			implicitCase{"mixed/cap=8", mixed, 8},
			implicitCase{"late-anchor", lateAnchorPlan(t), 4096})
	})
	return implicitCases
}

// lateAnchorPlan is two robots whose start-up leg ends within the
// contiguity tolerance after their zig-zag's anchor time, and so late
// that the kept anchor time exceeds the first turning point's time:
// the kernel clamps that turn's time to the anchor's.
func lateAnchorPlan(t testing.TB) *sim.Plan {
	t.Helper()
	cone := geom.MustCone(2)
	var trajs []*trajectory.Trajectory
	for _, x := range []float64{1e-10, -2e-10} {
		a := cone.BoundaryPoint(x)
		zz, err := trajectory.NewZigZag(cone, a)
		if err != nil {
			t.Fatal(err)
		}
		leg := geom.Segment{From: geom.Point{}, To: geom.Point{X: x, T: a.T + 9e-10}}
		trajs = append(trajs, trajectory.Must([]geom.Segment{leg}, zz))
	}
	plan, err := sim.NewPlanModel(trajs, fault.CrashModel(1))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// checkImplicitTail compares plan c's kernel with the corner-storing
// oracle at targets drawn from seed around robot r: 48 log-uniform over
// 1e-3 to 1e12 times its anchor's distance on both sides, and each of
// its stored turning points with its ±1-ulp neighbours, sorted or
// shuffled. Every robot's first visit and covering index, SearchTime
// and KthDistinctVisit at every k must equal the oracle's bit for bit.
func checkImplicitTail(t *testing.T, c implicitCase, r int, seed uint64, shuffle bool) {
	cp, err := compiled.CompileCapped(c.plan, c.cap)
	if err != nil {
		t.Fatal(err)
	}
	o := compiled.NewOracle(c.plan, c.cap)
	n := len(c.plan.Trajectories())
	scale := 1.0
	if tail := c.plan.Trajectories()[r].TailOf(); tail != nil && tail.Anchor().X != 0 {
		scale = math.Abs(tail.Anchor().X)
	}
	rng := rand.New(rand.NewPCG(seed, uint64(r)))
	var xs []float64
	for range 48 {
		x := scale * math.Pow(10, -3+15*rng.Float64())
		if rng.IntN(2) == 0 {
			x = -x
		}
		xs = append(xs, x)
	}
	for _, p := range o.Turns(r) {
		xs = append(xs, p, math.Nextafter(p, math.Inf(1)), math.Nextafter(p, math.Inf(-1)))
	}
	slices.Sort(xs)
	if shuffle {
		rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	}

	e := cp.NewEvaluator()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, x := range xs {
		for i := range n {
			got, gi, gok := e.FirstVisitAt(i, x)
			want, wi, wok := o.FirstVisit(i, x)
			if gok != wok || gi != wi || (wok && !same(got, want)) {
				t.Fatalf("%s robot %d x=%v: firstVisit %v at %d (%v), oracle %v at %d (%v)", c.name, i, x, got, gi, gok, want, wi, wok)
			}
		}
		visits := o.Visits(x)
		kth := func(k int) float64 {
			if k > len(visits) {
				return math.Inf(1)
			}
			return visits[k-1]
		}
		for k := 1; k <= n; k++ {
			got, err := e.KthDistinctVisit(x, k)
			if want := kth(k); err != nil || !same(got, want) {
				t.Fatalf("%s x=%v k=%d: KthDistinctVisit %v (%v), oracle %v", c.name, x, k, got, err, want)
			}
		}
		if got, want := e.SearchTime(x), kth(cp.Model().DetectionRank()); !same(got, want) {
			t.Fatalf("%s x=%v: SearchTime %v, oracle %v", c.name, x, got, want)
		}
	}
}

// FuzzImplicitTail checks the power-table tail turns against the
// oracle that stores every turn; its seed corpus covers every robot of
// every plan in both orders.
func FuzzImplicitTail(fz *testing.F) {
	for p, c := range implicitPlans(fz) {
		for r := range len(c.plan.Trajectories()) {
			fz.Add(uint8(p), uint16(r), uint64(p*1000+r), false)
			fz.Add(uint8(p), uint16(r), uint64(p*1000+r), true)
		}
	}
	fz.Fuzz(func(t *testing.T, pb uint8, rb uint16, seed uint64, shuffle bool) {
		cases := implicitPlans(t)
		c := cases[int(pb)%len(cases)]
		checkImplicitTail(t, c, int(rb)%len(c.plan.Trajectories()), seed, shuffle)
	})
}

// TestImplicitTailConcurrent has several goroutines evaluate one plan
// whose robots share a 4,097-power table (the corner cap binds), each
// through its own evaluator, against answers computed beforehand. Run
// it under -race.
func TestImplicitTailConcurrent(t *testing.T) {
	c := implicitPlans(t)[6]
	cp, err := compiled.Compile(c.plan)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 256)
	for i := range xs {
		xs[i] = math.Copysign(math.Pow(10, float64(i%64)/4), float64(i%2)-0.5)
	}
	o := compiled.NewOracle(c.plan, c.cap)
	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = o.Visits(x)[cp.Model().DetectionRank()-1]
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range len(xs) {
				i := (r*7 + g*61) % len(xs)
				if got := cp.SearchTime(xs[i]); got != want[i] {
					t.Errorf("SearchTime(%v) = %v, oracle %v", xs[i], got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
