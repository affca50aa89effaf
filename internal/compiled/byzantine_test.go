package compiled_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"linesearch/internal/compiled"
	"linesearch/internal/fault"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
)

// TestDifferentialByzantineVote is the vote-rule kernel's correctness
// anchor: >= 1000 randomized Byzantine (n, f, votes, base, x) cases
// where the compiled kernel, the exact engine (internal/sim) and the
// independent discrete-time engine (stepsim_test.go, evaluated at the
// equivalent crash budget rank-1) must agree to 1e-9.
func TestDifferentialByzantineVote(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	bases := []string{"", ":proportional", ":doubling", ":twogroup", ":cone:2.5", ":cone:4", ":uniform:3"}

	const wantCases = 1200
	const targetsPerPlan = 8
	cases := 0
	for cases < wantCases {
		n := 1 + rng.Intn(10)
		f := rng.Intn(n)
		name := "byzantine"
		if rng.Intn(2) == 0 {
			// Explicit vote threshold in [1, n-f]; 0 stays at the default.
			name += fmt.Sprintf("@%d", 1+rng.Intn(n-f))
		}
		name += bases[rng.Intn(len(bases))]
		st, err := strategy.Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		plan, err := sim.FromStrategy(st, n, f)
		if err != nil {
			continue // infeasible rank or base out of regime
		}
		if plan.Model().Kind != fault.ModelByzantine {
			t.Fatalf("%s produced a %s plan", name, plan.Model())
		}
		cp, err := compiled.Compile(plan)
		if err != nil {
			t.Fatalf("compile %s(%d,%d): %v", name, n, f, err)
		}
		if cp.Model().DetectionRank() != plan.Model().DetectionRank() {
			t.Fatalf("%s: compiled rank %d, sim rank %d", name, cp.Model().DetectionRank(), plan.Model().DetectionRank())
		}

		for i := 0; i < targetsPerPlan; i++ {
			x := math.Pow(10, 4*rng.Float64())
			if rng.Intn(2) == 0 {
				x = -x
			}
			label := fmt.Sprintf("%s(n=%d,f=%d) x=%g", name, n, f, x)

			tSim := plan.SearchTime(x)
			tCompiled := cp.SearchTime(x)
			if e := relErr(tSim, tCompiled); e > diffTol {
				t.Fatalf("%s: compiled %v vs sim %v (rel err %g)", label, tCompiled, tSim, e)
			}

			if !math.IsInf(tSim, 1) {
				// The independent engine knows nothing about votes: the
				// reduction says the Byzantine worst case is the crash
				// worst case at budget rank-1.
				tmax := 1.1*tSim + 1
				w := stepWorld(t, plan, tmax)
				tStep, err := w.searchTime(x, plan.Model().DetectionRank()-1, tmax)
				if err != nil {
					t.Fatalf("%s: stepsim: %v", label, err)
				}
				if e := relErr(tSim, tStep); e > diffTol {
					t.Fatalf("%s: stepsim %v vs sim %v (rel err %g)", label, tStep, tSim, e)
				}
			}
			cases++
		}
	}
	if cases < 1000 {
		t.Fatalf("only %d differential cases ran, want >= 1000", cases)
	}
}

// TestByzantineEvalManyZeroAllocs pins the vote-rule path to the same
// contract as the crash path: steady-state batch evaluation through a
// held evaluator never touches the heap.
func TestByzantineEvalManyZeroAllocs(t *testing.T) {
	plan, err := sim.FromStrategy(strategy.Byzantine{}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := compiled.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	e := cp.Evaluator()
	defer e.Release()
	xs := []float64{2, -17.5, 400, -8000}
	dst := make([]float64, len(xs))

	if avg := testing.AllocsPerRun(200, func() {
		if e.SearchTime(437.25) <= 0 {
			t.Fatal("bad search time")
		}
	}); avg != 0 {
		t.Errorf("byzantine SearchTime allocates %v per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		dst = e.EvalMany(xs, dst)
	}); avg != 0 {
		t.Errorf("byzantine EvalMany allocates %v per op, want 0", avg)
	}
}

// FuzzByzantineVote fuzzes the vote-rule kernel against the exact
// engine: arbitrary (n, f, votes, base, x) must never panic, any finite
// answer must respect the unit-speed bound, the compiled result must
// match sim to 1e-9, and the detection rank must obey rank = f + votes.
func FuzzByzantineVote(fz *testing.F) {
	bases := []string{"", ":proportional", ":doubling", ":twogroup", ":cone:2.5", ":uniform:3"}
	fz.Add(uint8(5), uint8(1), uint8(0), uint8(0), 4.0)
	fz.Add(uint8(5), uint8(1), uint8(2), uint8(1), -7.5)
	fz.Add(uint8(7), uint8(2), uint8(3), uint8(2), 1e6)
	fz.Add(uint8(3), uint8(0), uint8(1), uint8(3), -1.0)
	fz.Add(uint8(9), uint8(4), uint8(1), uint8(4), 123.456)
	fz.Fuzz(func(t *testing.T, n, f, votes, bi uint8, x float64) {
		if n == 0 || n > 32 {
			return // width is not the interesting axis
		}
		name := "byzantine"
		if votes > 0 {
			name += fmt.Sprintf("@%d", votes)
		}
		name += bases[int(bi)%len(bases)]
		st, err := strategy.Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		plan, err := sim.FromStrategy(st, int(n), int(f))
		if err != nil {
			return // infeasible pair, rank > n, or base out of regime
		}
		m := plan.Model()
		if m.Kind != fault.ModelByzantine || m.DetectionRank() != m.F+m.VotesRequired() {
			t.Fatalf("%s(%d,%d): inconsistent model %s", name, n, f, m)
		}
		cp, err := compiled.Compile(plan)
		if err != nil {
			t.Fatalf("compile %s(%d,%d): %v", name, n, f, err)
		}
		got := cp.SearchTime(x)
		want := plan.SearchTime(x)
		if !math.IsInf(got, 1) && math.Abs(x) >= 1 && got < math.Abs(x)-1e-9 {
			t.Errorf("SearchTime(%g) = %v beats the unit-speed bound", x, got)
		}
		if e := relErr(want, got); e > diffTol {
			t.Errorf("SearchTime(%g): kernel %v, sim %v (rel err %g)", x, got, want, e)
		}
	})
}

// BenchmarkByzantineBatch measures EvalMany on a Byzantine plan — the
// vote-rule path differs from crash only in the selection rank, so its
// cost profile must stay within the crash envelope (0 allocs/op).
func BenchmarkByzantineBatch(b *testing.B) {
	plan, err := sim.FromStrategy(strategy.Byzantine{}, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := compiled.Compile(plan)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{1, 100, 10000} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			e := cp.Evaluator()
			defer e.Release()
			xs := benchTargets(size)
			dst := make([]float64, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = e.EvalMany(xs, dst)
			}
		})
	}
}
