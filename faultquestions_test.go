package linesearch

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"linesearch/internal/sim"
	"linesearch/internal/trajectory"
)

// simPlan builds the exact engine's plan of s's strategy, the oracle
// of the questions the kernel answers. Its build refuses exactly what
// the kernel's build refused (FuzzCompileFromSchedule holds the two to
// it), so a refusal here is a bug.
func (s *Searcher) simPlan() *sim.Plan {
	p, err := sim.FromStrategy(s.st, s.n, s.f)
	if err != nil {
		panic(fmt.Sprintf("the kernel compiled but the exact engine refused the plan: %v", err))
	}
	return p
}

// The oracles of the fault questions a Searcher answers from the
// kernel's first visits: each validates its input as the Searcher does
// and then answers from the exact engine's plan, whose FirstVisits lists
// every robot's first visit in (time, robot) order.

// oracleDetectionTime is DetectionTime: the Votes()-th first visit by a
// robot outside the fault set.
func oracleDetectionTime(s *Searcher, x float64, faulty []int) (float64, error) {
	if err := s.checkTarget(x); err != nil {
		return 0, err
	}
	set, err := s.faultSet(faulty)
	if err != nil {
		return 0, err
	}
	votes := s.Votes()
	for _, v := range s.simPlan().FirstVisits(x) {
		if set[v.Robot].Confirms() {
			if votes--; votes == 0 {
				return v.T, nil
			}
		}
	}
	return math.Inf(1), nil
}

// oracleWorstFaultSet is WorstFaultSet: the f earliest visitors, ties
// broken by robot index, in index order (nil when there are none).
func oracleWorstFaultSet(s *Searcher, x float64) []int {
	var out []int
	for _, v := range s.simPlan().FirstVisits(x) {
		if len(out) < s.kernel.Model().F {
			out = append(out, v.Robot)
		}
	}
	slices.Sort(out)
	return out
}

// oracleSearchTimeWithSpeeds is SearchTimeWithSpeeds: the
// DetectionRank()-th first visit with every robot's times divided by its
// speed.
func oracleSearchTimeWithSpeeds(s *Searcher, x float64, speeds []float64) (float64, error) {
	if err := s.checkTarget(x); err != nil {
		return 0, err
	}
	sp, err := s.speedVector(speeds)
	if err != nil {
		return 0, err
	}
	visits := s.simPlan().FirstVisits(x)
	for i := range visits {
		visits[i].T /= sp[visits[i].Robot]
	}
	slices.SortFunc(visits, func(a, b sim.Visit) int { return cmp.Compare(a.T, b.T) })
	if rank := s.DetectionRank(); len(visits) >= rank {
		return visits[rank-1].T, nil
	}
	return math.Inf(1), nil
}

// oraclePositions is Positions over the exact engine's trajectories.
func oraclePositions(s *Searcher, t float64) ([]float64, error) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("linesearch: time must be finite, got %g", t)
	}
	out := make([]float64, s.n)
	for i, tr := range s.simPlan().Trajectories() {
		x, err := trajectory.PositionAt(tr.Legs(), tr.TailOf(), t)
		if err != nil {
			return nil, fmt.Errorf("linesearch: robot %d at t=%g: %w", i, t, err)
		}
		out[i] = x
	}
	return out, nil
}

// FuzzFaultQuestions holds DetectionTime, WorstFaultSet,
// SearchTimeWithSpeeds and Positions to their oracles over the exact
// engine, bit for bit and with identical error texts, on every strategy
// family at up to 32 robots. Each byte of faults names a robot index
// (shifted by 2, so negative and out-of-range indices occur) and each
// byte of speeds a speed of byte/16 (so 0, which is refused, occurs).
func FuzzFaultQuestions(fz *testing.F) {
	strategies := []string{"proportional", "doubling", "twogroup", "cone:2.5", "uniform:1.5",
		"pfaulty", "byzantine", "byzantine:doubling", "byzantine@2:uniform:2"}
	fz.Add(uint8(0), uint8(3), uint8(1), 7.5, []byte{2}, []byte{16, 4, 64}, 9.5)
	fz.Add(uint8(1), uint8(4), uint8(1), 3.0, []byte{}, []byte{16, 32}, 2.0)
	fz.Add(uint8(2), uint8(4), uint8(1), -3.0, []byte{4, 5}, []byte{8, 64, 32, 32}, 0.0)
	fz.Add(uint8(3), uint8(7), uint8(3), -12.25, []byte{2, 2}, []byte{0}, -1.0)
	fz.Add(uint8(4), uint8(7), uint8(3), 1e6, []byte{1}, []byte{}, 1e9)
	fz.Add(uint8(5), uint8(5), uint8(2), 40.0, []byte{3, 4, 200}, []byte{17}, 33.0)
	fz.Add(uint8(6), uint8(5), uint8(1), 7.0, []byte{2, 3}, []byte{16, 16, 16, 16, 16}, 7.0)
	fz.Add(uint8(7), uint8(9), uint8(2), -1e300, []byte{5}, []byte{255}, 1e300)
	fz.Add(uint8(0), uint8(2), uint8(1), 1e308, []byte{2}, []byte{16}, 1e308)
	// x = -5 lies one rounding past robot 2's turn at -4.999999999999999,
	// which a rounded fraction of the way once counted as a visit.
	fz.Add(uint8(8), uint8(24), uint8(15), -5.0, []byte("0"), []byte("0"), 0.2222222222222222)
	// A time whose ratio to a tail's anchor time overflows.
	fz.Add(uint8(0), uint8(29), uint8(21), 1e308, []byte("0"), []byte{16}, 1.5e308)
	fz.Add(uint8(8), uint8(9), uint8(2), 2.5, []byte{2, 3, 4}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, 4.5)
	fz.Fuzz(func(t *testing.T, si, n, f uint8, x float64, faults, speeds []byte, tt float64) {
		if n > 32 {
			return // keep per-input cost bounded; width is not the interesting axis
		}
		s, err := NewWithStrategy(strategies[int(si)%len(strategies)], int(n), int(f))
		if err != nil {
			return // invalid pair or out-of-regime strategy
		}
		faulty := make([]int, len(faults))
		for i, b := range faults {
			faulty[i] = int(b) - 2
		}
		var sp []float64
		for _, b := range speeds {
			sp = append(sp, float64(b)/16)
		}

		got, err := s.DetectionTime(x, faulty)
		want, wantErr := oracleDetectionTime(s, x, faulty)
		sameAnswer(t, "DetectionTime", []float64{got}, err, []float64{want}, wantErr)

		if s.checkTarget(x) == nil {
			if got, want := s.WorstFaultSet(x), oracleWorstFaultSet(s, x); !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Errorf("WorstFaultSet(%g) = %v, oracle %v", x, got, want)
			}
		}

		got, err = s.SearchTimeWithSpeeds(x, sp)
		want, wantErr = oracleSearchTimeWithSpeeds(s, x, sp)
		sameAnswer(t, "SearchTimeWithSpeeds", []float64{got}, err, []float64{want}, wantErr)

		pos, err := s.Positions(tt)
		wantPos, wantErr := oraclePositions(s, tt)
		sameAnswer(t, "Positions", pos, err, wantPos, wantErr)
	})
}

// sameAnswer fails t unless got and want hold the same float64 bits and
// the two errors have the same text (or are both nil).
func sameAnswer(t *testing.T, q string, got []float64, err error, want []float64, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, oracle %v", q, err, wantErr)
	}
	if err != nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s = %v, oracle %v", q, got, want)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s = %v, oracle %v", q, got, want)
		}
	}
}
