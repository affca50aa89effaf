package analysis

import (
	"fmt"
	"testing"

	"linesearch/internal/numeric"
)

func TestKthVisitCRRecoversLemma5(t *testing.T) {
	// k = f+1 must equal ConeCR for every proportional pair and beta.
	pairs := [][2]int{{2, 1}, {3, 1}, {4, 2}, {5, 2}, {5, 3}, {11, 5}}
	for _, p := range pairs {
		n, f := p[0], p[1]
		for _, beta := range []float64{1.2, 1.5, 2, 3.7} {
			want, err := ConeCR(beta, n, f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := KthVisitCR(beta, n, f+1)
			if err != nil {
				t.Fatal(err)
			}
			if !numeric.AlmostEqual(got, want, 1e-12) {
				t.Errorf("(%d,%d) beta=%v: KthVisitCR = %v, ConeCR = %v", n, f, beta, got, want)
			}
		}
	}
}

func TestKthVisitCRIncreasingInK(t *testing.T) {
	prev := 0.0
	for k := 1; k <= 12; k++ {
		got, err := KthVisitCR(1.4, 5, k)
		if err != nil {
			t.Fatal(err)
		}
		if got <= prev {
			t.Errorf("k=%d: ratio %v not increasing (prev %v)", k, got, prev)
		}
		prev = got
	}
}

func TestKthVisitCRValidation(t *testing.T) {
	if _, err := KthVisitCR(1, 5, 2); err == nil {
		t.Error("beta = 1 accepted")
	}
	if _, err := KthVisitCR(2, 0, 2); err == nil {
		t.Error("n = 0 accepted")
	}
	if _, err := KthVisitCR(2, 5, 0); err == nil {
		t.Error("k = 0 accepted")
	}
}

// OptimalBetaForK is the extension finding EXPERIMENTS.md reports for
// the kvisit experiment, checked below against KthVisitCR: the cone
// slope minimising KthVisitCR for the k-th-visitor objective is
// 4k/n - 1, by the same derivative computation as below Lemma 5. It is only a valid cone slope (> 1) when n < 2k;
// for n >= 2k the objective decreases toward the beta -> 1 boundary
// (the schedule degenerates) and an error is returned.
func OptimalBetaForK(n, k int) (float64, error) {
	if n < 1 || k < 1 {
		return 0, fmt.Errorf("analysis: OptimalBetaForK requires n, k >= 1, got n=%d, k=%d", n, k)
	}
	beta := 4*float64(k)/float64(n) - 1
	if !(beta > 1) {
		return 0, fmt.Errorf("analysis: no interior optimum for n=%d, k=%d (needs n < 2k)", n, k)
	}
	return beta, nil
}

func TestOptimalBetaForK(t *testing.T) {
	// k = f+1 recovers beta* = (4f+4)/n - 1.
	for _, p := range [][2]int{{3, 1}, {5, 2}, {5, 3}, {11, 5}} {
		n, f := p[0], p[1]
		want, err := OptimalBeta(n, f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := OptimalBetaForK(n, f+1)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.AlmostEqual(got, want, 1e-12) {
			t.Errorf("(%d,%d): OptimalBetaForK = %v, OptimalBeta = %v", n, f, got, want)
		}
	}
}

func TestOptimalBetaForKBoundary(t *testing.T) {
	// n >= 2k has no interior optimum.
	if _, err := OptimalBetaForK(5, 2); err == nil {
		t.Error("n >= 2k accepted")
	}
	if _, err := OptimalBetaForK(0, 1); err == nil {
		t.Error("n = 0 accepted")
	}
	// And the claimed optimum really minimises the sampled objective.
	const n, k = 5, 4
	betaStar, err := OptimalBetaForK(n, k)
	if err != nil {
		t.Fatal(err)
	}
	best, err := KthVisitCR(betaStar, n, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, beta := range numeric.Logspace(1.001, 50, 300) {
		cr, err := KthVisitCR(beta, n, k)
		if err != nil {
			t.Fatal(err)
		}
		if cr < best-1e-9 {
			t.Errorf("beta=%v: ratio %v beats claimed optimum %v", beta, cr, best)
		}
	}
}
