package sweep

import (
	"context"
	"math"
	"testing"

	"linesearch"
	"linesearch/internal/compiled"
)

// TestExpectedObjectiveMatchesPublicAPI: a sweep cell's stochastic
// objective is the public API's ExpectedSearchTime, target by target,
// so /v1/sweeps and /v1/searchtime?objective=expected cannot disagree.
// Heterogeneous speed vectors are the case that matters: the adversary
// must crash the earliest arrivals at the fleet's speeds, not at unit
// speed.
func TestExpectedObjectiveMatchesPublicAPI(t *testing.T) {
	specs := []Spec{
		{N: []int{3}, F: []int{1}, Strategies: []string{"proportional"},
			P: []float64{0.3}, Speeds: [][]float64{{1, 2, 0.5}}, XMax: 50, GridPoints: 4},
		{N: []int{4}, F: []int{2}, Strategies: []string{"auto"},
			P: []float64{0.2}, Speeds: [][]float64{{3, 0.5, 1, 1.5}}, XMax: 50, GridPoints: 5},
		{N: []int{3}, F: []int{1}, Strategies: []string{"doubling"},
			P: []float64{0.5}, Speeds: [][]float64{{2}}, XMax: 30, GridPoints: 8},
		{N: []int{3}, F: []int{1}, Strategies: []string{"proportional"},
			Speeds: [][]float64{{0.5, 1, 4}}, XMax: 20, GridPoints: 5},
		{N: []int{3}, F: []int{1}, FaultModels: []string{"pfaulty:0.5:2"}, XMax: 30, GridPoints: 8},
	}
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, p := range spec.Cells() {
			cell := EvalCell(context.Background(), p)
			if !cell.OK() {
				t.Fatalf("cell %+v failed: %s", p, cell.Err)
			}
			st, err := resolveStrategy(ComposeStrategy(p.FaultModel, p.Strategy), p.N, p.F)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := compiled.FromStrategy(st, p.N, p.F)
			if err != nil {
				t.Fatal(err)
			}
			s, err := linesearch.NewWithStrategy(cell.Resolved, p.N, p.F)
			if err != nil {
				t.Fatal(err)
			}
			sup, argx := math.Inf(-1), 0.0
			for _, x := range expectedTargets(plan, p) {
				want, err := s.ExpectedSearchTime(x, p.P, p.Speeds)
				if err != nil {
					t.Fatal(err)
				}
				got, err := plan.ExpectedSearchTime(x, missProbability(plan, p), p.Speeds)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s speeds %v p %g x=%g: sweep %v, public API %v", cell.Resolved, p.Speeds, p.P, x, got, want)
				}
				if r := want / math.Abs(x); !math.IsInf(want, 1) && r > sup {
					sup, argx = r, x
				}
			}
			if cell.ExpectedRatio == nil {
				t.Errorf("%s speeds %v p %g: no expected ratio, public API sup %v", cell.Resolved, p.Speeds, p.P, sup)
			} else if *cell.ExpectedRatio != sup || cell.ExpectedArgX != argx {
				t.Errorf("%s speeds %v p %g: cell expected ratio %v at %g, public API sup %v at %g",
					cell.Resolved, p.Speeds, p.P, *cell.ExpectedRatio, cell.ExpectedArgX, sup, argx)
			}
		}
	}
}
