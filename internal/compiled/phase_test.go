package compiled_test

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"linesearch/internal/compiled"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
)

// selfSimilarCase is one plan the phase tables must serve.
type selfSimilarCase struct {
	name string
	st   strategy.Strategy
	n, f int
}

func (c selfSimilarCase) compile(t testing.TB) *compiled.Plan {
	t.Helper()
	plan, err := sim.FromStrategy(c.st, c.n, c.f)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := compiled.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// firstVisits returns every robot's first visit at x, ascending: entry
// k-1 is T_k(x).
func firstVisits(t testing.TB, e *compiled.Evaluator, n int, x float64, dst []float64) []float64 {
	t.Helper()
	dst = dst[:0]
	for i := range n {
		v, ok := e.FirstVisit(i, x)
		if !ok {
			t.Fatalf("robot %d never visits %g", i, x)
		}
		dst = append(dst, v)
	}
	slices.Sort(dst)
	return dst
}

// TestFleetSelfSimilar pins the structure the phase tables rest on: on
// proportional and cone plans the detector finds a scale factor sigma
// with T_k(sigma*x) = sigma*T_k(x) for every rank k and |x| >= mindist,
// and it finds none where the structure is absent.
func TestFleetSelfSimilar(t *testing.T) {
	cases := []selfSimilarCase{
		{"proportional(5,2)", strategy.Proportional{}, 5, 2},
		{"proportional(21,10)", strategy.Proportional{}, 21, 10},
		{"proportional(41,30)", strategy.Proportional{}, 41, 30},
		{"proportional(1001,500)", strategy.Proportional{}, 1001, 500},
		{"mindist 2.5", strategy.Proportional{MinDistance: 2.5}, 8, 5},
		{"cone:3", strategy.Cone{Beta: 3}, 6, 3},
		{"byzantine", strategy.Byzantine{}, 9, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cp := c.compile(t)
			g, ok := cp.Grid()
			if !ok {
				t.Fatal("detector found no self-similarity")
			}
			sigma := math.Exp(g.LogSigma)
			md := 1.0
			switch st := c.st.(type) {
			case strategy.Proportional:
				md = max(md, st.MinDistance)
			}
			e := cp.Evaluator()
			defer e.Release()
			var at, scaled []float64
			for i := range 200 {
				x := md * math.Pow(10, 3*float64(i)/199)
				if i%2 == 1 {
					x = -x
				}
				at = firstVisits(t, e, c.n, x, at)
				scaled = firstVisits(t, e, c.n, sigma*x, scaled)
				for k := range at {
					if rel := math.Abs(scaled[k]-sigma*at[k]) / (sigma * at[k]); rel > 1e-12 {
						t.Fatalf("T_%d(%g*%g) = %v, sigma*T_%d = %v (rel %.2g)", k+1, sigma, x, scaled[k], k+1, sigma*at[k], rel)
					}
				}
			}
		})
	}
	for _, c := range []selfSimilarCase{
		{"uniform:3", strategy.UniformCone{Beta: 3}, 6, 3},
		{"doubling", strategy.Doubling{}, 6, 3},
		{"twogroup", strategy.TwoGroup{}, 6, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, ok := c.compile(t).Grid(); ok {
				t.Fatal("detector reports a self-similarity the plan does not have")
			}
		})
	}
}

// phaseTargets returns targets that exercise a phase table: dense
// log-spaced points through periods spread over the table's range, on
// both sides, plus every fleet turning point and zone edge of those
// periods and the range's lower end, each with its neighbours one ulp
// away.
func phaseTargets(g compiled.PhaseGrid, periods, perPeriod int) []float64 {
	first := math.Ceil((math.Log(g.Lo) - g.LogBase) / g.LogSigma)
	last := math.Floor((math.Log(g.Hi)-g.LogBase)/g.LogSigma) - 1
	var xs []float64
	add := func(x float64) {
		for _, v := range []float64{math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1))} {
			xs = append(xs, v, -v)
		}
	}
	for p := range periods {
		m := first + math.Round(float64(p)*(last-first)/float64(max(periods-1, 1)))
		at := func(phase float64) float64 { return math.Exp(g.LogBase + (m+phase)*g.LogSigma) }
		for j := range perPeriod {
			add(at(float64(j) / float64(perPeriod)))
		}
		for _, turn := range g.Turn {
			for _, d := range []float64{0, -g.Zone, g.Zone} {
				add(at(turn + d))
			}
		}
	}
	add(g.Lo)
	return xs
}

// checkTableMatchesScan compares rank k's table answers with the
// oracle's, bit for bit, on xs. oracle(i, k) is T_k(xs[i]) from a scan.
func checkTableMatchesScan(t *testing.T, e *compiled.Evaluator, k int, xs []float64, oracle func(i, k int) float64) {
	t.Helper()
	if !e.BuildTable(k) {
		t.Fatalf("rank %d: table certificate failed", k)
	}
	answered := 0
	for i, x := range xs {
		got, ok := e.TableKth(x, k)
		if !ok {
			continue
		}
		answered++
		if want := oracle(i, k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("rank %d, x=%v: table %v, scan %v", k, x, got, want)
		}
	}
	if answered == 0 {
		t.Fatalf("rank %d: the table answered none of %d targets", k, len(xs))
	}
}

// TestSelfSimilarBitIdentical is the phase tables' oracle test: on every
// rank of plans up to n = 101 and on ranks 1, f+1, n and 64 random ones
// of n = 1001 and 10001, every table answer equals the scan's with the
// same Float64bits, on dense phases and on every fleet turning point and
// zone edge +-1 ulp. For the wide plans the scan's first visits are
// gathered and sorted once per target, so every rank reads its k-th
// value from one scan (the selection returns that same float).
func TestSelfSimilarBitIdentical(t *testing.T) {
	cases := []selfSimilarCase{
		{"proportional(5,2)", strategy.Proportional{}, 5, 2},
		{"proportional(8,5)", strategy.Proportional{}, 8, 5},
		{"proportional(21,10)", strategy.Proportional{}, 21, 10},
		{"proportional(41,30)", strategy.Proportional{}, 41, 30},
		{"mindist 2.5", strategy.Proportional{MinDistance: 2.5}, 31, 16},
		{"cone:3", strategy.Cone{Beta: 3}, 12, 7},
		{"cone:1.2", strategy.Cone{Beta: 1.2, MinDistance: 0.01}, 101, 50},
		{"byzantine", strategy.Byzantine{}, 21, 5},
		{"proportional(101,50)", strategy.Proportional{}, 101, 50},
		{"proportional(1001,500)", strategy.Proportional{}, 1001, 500},
		{"proportional(10001,5000)", strategy.Proportional{}, 10001, 5000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.n > 1001 && testing.Short() {
				t.Skip("n = 10001 in -short mode")
			}
			cp := c.compile(t)
			g, ok := cp.Grid()
			if !ok {
				t.Fatal("detector found no self-similarity")
			}
			e := cp.Evaluator()
			defer e.Release()
			ranks := make([]int, 0, c.n)
			periods, perPeriod := 12, 16
			if c.n <= 101 {
				for k := 1; k <= c.n; k++ {
					ranks = append(ranks, k)
				}
			} else {
				rng := rand.New(rand.NewPCG(uint64(c.n), 1))
				ranks = append(ranks, 1, cp.Model().DetectionRank(), c.n)
				for range 64 {
					ranks = append(ranks, 1+rng.IntN(c.n))
				}
				periods, perPeriod = 8, 8
			}
			xs := phaseTargets(g, periods, perPeriod)
			oracle := func(i, k int) float64 { return e.ScanKth(xs[i], k) }
			if c.n > 101 {
				sorted := make([][]float64, len(xs))
				for i, x := range xs {
					sorted[i] = firstVisits(t, e, c.n, x, nil)
					if got, want := sorted[i][cp.Model().DetectionRank()-1], e.ScanKth(x, cp.Model().DetectionRank()); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("x=%v: sorted first visits give %v, the scan %v", x, got, want)
					}
				}
				oracle = func(i, k int) float64 { return sorted[i][k-1] }
			}
			for _, k := range ranks {
				checkTableMatchesScan(t, e, k, xs, oracle)
			}
		})
	}
}

// FuzzSelfSimilarKth varies the plan (n, f, beta, mindist), the target
// and the rank: whenever the detector finds a self-similarity and the
// table's certificate holds, the table's answer must equal the scan's
// bit for bit.
func FuzzSelfSimilarKth(fz *testing.F) {
	fz.Add(uint8(21), uint8(10), 0.0, 1.0, 7.5, uint16(11))
	fz.Add(uint8(8), uint8(5), 3.0, 2.5, -1e4, uint16(1))
	fz.Add(uint8(41), uint8(30), 1.5, 1e-3, 0.25, uint16(41))
	fz.Add(uint8(101), uint8(50), 1.0001, 1e6, -3e7, uint16(51))
	fz.Fuzz(func(t *testing.T, nb, fb uint8, beta, mindist, x float64, kb uint16) {
		n := 2 + int(nb)%150
		f := n/2 + int(fb)%(n-n/2)
		if f >= n || n >= 2*f+2 {
			return
		}
		if !(mindist >= 1e-6 && mindist <= 1e6) || math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		if ax := math.Abs(x); ax < mindist || ax > 1e8*mindist {
			// Fold a far target into the tables' range, log-uniformly.
			x = math.Copysign(mindist*math.Pow(10, math.Mod(ax, 8)), x)
		}
		var st strategy.Strategy = strategy.Proportional{MinDistance: mindist}
		if beta > 1 && beta < 100 {
			st = strategy.Cone{Beta: beta, MinDistance: mindist}
		}
		plan, err := sim.FromStrategy(st, n, f)
		if err != nil {
			return
		}
		cp, err := compiled.Compile(plan)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + int(kb)%n
		e := cp.Evaluator()
		defer e.Release()
		if !e.BuildTable(k) {
			return
		}
		got, ok := e.TableKth(x, k)
		if !ok {
			return
		}
		if want := e.ScanKth(x, k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s n=%d f=%d k=%d x=%v: table %v, scan %v", st.Name(), n, f, k, x, got, want)
		}
	})
}

// TestPhaseTableServesSearchTime checks the production path: after a
// few scanned targets SearchTime answers from the table (it keeps
// agreeing with the scan) and EvalMany stays allocation-free.
func TestPhaseTableServesSearchTime(t *testing.T) {
	cp := selfSimilarCase{"", strategy.Proportional{}, 41, 21}.compile(t)
	e := cp.Evaluator()
	defer e.Release()
	xs := benchTargets(512)
	dst := make([]float64, len(xs))
	dst = e.EvalMany(xs, dst)
	if !cp.HasTable(cp.Model().DetectionRank()) {
		t.Fatal("no table after 512 scanned targets")
	}
	for i, x := range xs {
		if want := e.ScanKth(x, cp.Model().DetectionRank()); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("x=%v: EvalMany %v, scan %v", x, dst[i], want)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { dst = e.EvalMany(xs, dst) }); allocs != 0 {
		t.Fatalf("EvalMany on a tabled plan allocates %v times", allocs)
	}
}

// TestPhaseTableConcurrentBuild races queries at the detection rank and
// at another rank against the tables' lazy builds from several
// goroutines: every answer must equal the scan's, whichever path gave
// it. Run it under -race.
func TestPhaseTableConcurrentBuild(t *testing.T) {
	cp := selfSimilarCase{"", strategy.Proportional{}, 31, 16}.compile(t)
	xs := benchTargets(256)
	oracle := cp.Evaluator()
	want := make([][2]float64, len(xs))
	for i, x := range xs {
		want[i] = [2]float64{oracle.ScanKth(x, cp.Model().DetectionRank()), oracle.ScanKth(x, 3)}
	}
	oracle.Release()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range len(xs) {
				i := (r*7 + g*61) % len(xs)
				if got := cp.SearchTime(xs[i]); got != want[i][0] {
					t.Errorf("SearchTime(%v) = %v, scan %v", xs[i], got, want[i][0])
					return
				}
				if got, err := cp.KthDistinctVisit(xs[i], 3); err != nil || got != want[i][1] {
					t.Errorf("KthDistinctVisit(%v, 3) = %v, %v; scan %v", xs[i], got, err, want[i][1])
					return
				}
			}
		}()
	}
	wg.Wait()
	if !cp.HasTable(cp.Model().DetectionRank()) || !cp.HasTable(3) {
		t.Fatal("the queries built no table")
	}
}
