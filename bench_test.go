package linesearch

// One benchmark per paper artifact (tables and figures) plus micro
// benchmarks for the hot paths. Each experiment benchmark regenerates
// the corresponding table or figure end-to-end — workload generation,
// sweep, measurement and rendering — so `go test -bench .` reproduces
// the paper's entire evaluation.

import (
	"testing"

	"linesearch/internal/analysis"
	"linesearch/internal/experiments"
	"linesearch/internal/schedule"
	"linesearch/internal/sim"
	"linesearch/internal/strategy"
)

// benchExperiment runs a registered experiment once per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Report) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (bounds and expansion factors for
// the paper's twelve (n, f) pairs).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFigure5Left regenerates Figure 5 (left): CR of A(2f+1, f)
// over n = 3..20.
func BenchmarkFigure5Left(b *testing.B) { benchExperiment(b, "fig5left") }

// BenchmarkFigure5Right regenerates Figure 5 (right): the asymptotic CR
// over a = n/f in (1, 2).
func BenchmarkFigure5Right(b *testing.B) { benchExperiment(b, "fig5right") }

// BenchmarkLowerBound regenerates the Theorem 2 table: root solving plus
// the adversarial ladder game against A(n, f).
func BenchmarkLowerBound(b *testing.B) { benchExperiment(b, "lowerbound") }

// BenchmarkAsymptotics regenerates the Corollary 1 / Theorem 2 sandwich.
func BenchmarkAsymptotics(b *testing.B) { benchExperiment(b, "asymptotics") }

// BenchmarkEmpiricalCRValidation regenerates experiment E6: simulated CR
// vs the Theorem 1 closed form for every Table 1 pair.
func BenchmarkEmpiricalCRValidation(b *testing.B) { benchExperiment(b, "verify") }

// BenchmarkBetaSweep regenerates the E7 ablation: CR as a function of
// the cone slope for three (n, f) pairs.
func BenchmarkBetaSweep(b *testing.B) { benchExperiment(b, "betasweep") }

// BenchmarkSpacing regenerates the Definition 2 ablation: proportional
// vs uniform turning-point spacing at the same beta*.
func BenchmarkSpacing(b *testing.B) { benchExperiment(b, "spacing") }

// BenchmarkTurnCost regenerates the turn-cost extension sweep.
func BenchmarkTurnCost(b *testing.B) { benchExperiment(b, "turncost") }

// BenchmarkKVisit regenerates the generalised-Lemma-5 verification.
func BenchmarkKVisit(b *testing.B) { benchExperiment(b, "kvisit") }

// BenchmarkFigure1 through BenchmarkFigure7 regenerate the paper's
// illustrative diagrams from the same engine as the experiments.
func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "fig7") }

// --- micro benchmarks -------------------------------------------------

// BenchmarkScheduleBuild measures constructing the realised A(11, 5):
// eleven trajectories with backward extension and start-up legs.
func BenchmarkScheduleBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := schedule.NewOptimal(11, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchTime measures one worst-case search-time query against
// A(5, 2) (five first-visit computations plus a sort).
func BenchmarkSearchTime(b *testing.B) {
	plan, err := sim.FromStrategy(strategy.Proportional{}, 5, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := plan.SearchTime(437.25); got <= 0 {
			b.Fatal("non-positive search time")
		}
	}
}

// BenchmarkEmpiricalCR measures a full empirical competitive-ratio
// search over A(3, 1) with default options, through the production
// path (Searcher.MeasureCR, i.e. compiled.Plan.CR).
func BenchmarkEmpiricalCR(b *testing.B) {
	s, err := New(3, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.MeasureCR(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem2Root measures solving the lower-bound equation for
// n = 41.
func BenchmarkTheorem2Root(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Theorem2Alpha(41); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarlo measures 1000 random-fault searches against
// A(5, 2).
func BenchmarkMonteCarlo(b *testing.B) {
	s, err := New(5, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MonteCarlo(1000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearcherNew measures the public-API constructor for the
// largest Table 1 pair.
func BenchmarkSearcherNew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := New(41, 20); err != nil {
			b.Fatal(err)
		}
	}
}
