package sim

import (
	"fmt"
	"math"
	"testing"

	"linesearch/internal/numeric"
	"linesearch/internal/strategy"
)

func TestWithTurnCostValidation(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	if _, err := p.WithTurnCost(-1, 100); err == nil {
		t.Error("negative cost accepted")
	}
	if _, err := p.WithTurnCost(math.NaN(), 100); err == nil {
		t.Error("NaN cost accepted")
	}
	if _, err := p.WithTurnCost(1, 0); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := p.WithTurnCost(1, math.Inf(1)); err == nil {
		t.Error("infinite horizon accepted")
	}
}

func TestWithTurnCostZeroIsIdentityWithinHorizon(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	derived, err := p.WithTurnCost(0, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1.5, -2.7, 40, -300} {
		if a, b := p.SearchTime(x), derived.SearchTime(x); !numeric.AlmostEqual(a, b, 1e-9) {
			t.Errorf("x=%v: zero-cost transform changed search time %v -> %v", x, a, b)
		}
	}
}

func TestWithTurnCostDelaysAccumulate(t *testing.T) {
	// The single doubling robot turns at 1, -2, 4, -8, ... With cost c,
	// its k-th turn happens c*k later than in the original, so its visit
	// times to a fixed point shift by c times the turns already made.
	p := mustPlan(t, strategy.Doubling{}, 1, 0)
	const cost = 0.5
	derived, err := p.WithTurnCost(cost, 1e3)
	if err != nil {
		t.Fatal(err)
	}
	// First visit of x = 3: original passes 3 on the sweep from -2 to 4
	// (t = 11), having turned twice (at 1 and at -2).
	orig := p.SearchTime(3)
	got := derived.SearchTime(3)
	want := orig + 2*cost
	if !numeric.AlmostEqual(got, want, 1e-9) {
		t.Errorf("turn-cost search time %v, want %v (orig %v + 2 pauses)", got, want, orig)
	}
}

func TestWithTurnCostMonotoneInCost(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	prev := 0.0
	for i, cost := range []float64{0, 0.25, 1, 4} {
		derived, err := p.WithTurnCost(cost, 1e4)
		if err != nil {
			t.Fatal(err)
		}
		st := derived.SearchTime(-7.3)
		if i > 0 && st < prev-1e-9 {
			t.Errorf("cost %v: search time %v decreased (prev %v)", cost, st, prev)
		}
		prev = st
	}
}

func TestTurnsBefore(t *testing.T) {
	p := mustPlan(t, strategy.Doubling{}, 1, 0)
	// Doubling robot turns at t = 3 (x=1), 6 (x=-2), 12 (x=4), 24 (x=-8).
	tests := []struct {
		t    float64
		want int
	}{
		{0, 0}, {3, 0}, {3.1, 1}, {6.5, 2}, {13, 3}, {25, 4},
	}
	for _, tt := range tests {
		got, err := p.TurnsBefore(0, tt.t)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("TurnsBefore(0, %v) = %d, want %d", tt.t, got, tt.want)
		}
	}
	if _, err := p.TurnsBefore(5, 10); err == nil {
		t.Error("out-of-range robot accepted")
	}
}

// TestTurnsBeforeIgnoresWaits: the Definition-4 waiting leg at the
// origin is not a direction reversal.
func TestTurnsBeforeIgnoresWaits(t *testing.T) {
	p := mustPlan(t, strategy.Proportional{}, 3, 1)
	// Robot 0 waits at the origin until (beta-1), moves to 1 arriving at
	// beta = 5/3 ~ 1.667, and first turns there.
	got, err := p.TurnsBefore(0, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("turns before first corner = %d, want 0", got)
	}
	got, err = p.TurnsBefore(0, 1.7)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("turns after first corner = %d, want 1", got)
	}
}

// TurnsBefore counts the direction reversals robot makes strictly
// before time t (corners of its trajectory, excluding waiting phases).
func (p *Plan) TurnsBefore(robot int, t float64) (int, error) {
	if robot < 0 || robot >= len(p.trajs) {
		return 0, fmt.Errorf("sim: robot %d out of range [0, %d)", robot, len(p.trajs))
	}
	segs := p.trajs[robot].SegmentsUntil(t)
	turns := 0
	for i := 1; i < len(segs); i++ {
		if segs[i].From.T < t && segs[i-1].Reverses(segs[i]) {
			turns++
		}
	}
	return turns, nil
}
