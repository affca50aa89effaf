package strategy

import (
	"testing"

	"linesearch/internal/fault"
	"linesearch/internal/numeric"
	"linesearch/internal/trajectory"
)

func TestParseByzantine(t *testing.T) {
	cases := []struct {
		input string
		want  Byzantine
	}{
		{"byzantine", Byzantine{}},
		{"byzantine@3", Byzantine{Votes: 3}},
		{"byzantine:doubling", Byzantine{Base: Doubling{}}},
		{"byzantine@2:proportional", Byzantine{Votes: 2, Base: Proportional{}}},
		{"byzantine@3:cone:2.5", Byzantine{Votes: 3, Base: Cone{Beta: 2.5}}},
	}
	for _, tc := range cases {
		s, err := Parse(tc.input)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.input, err)
			continue
		}
		b, ok := s.(Byzantine)
		if !ok || b != tc.want {
			t.Errorf("Parse(%q) = %#v, want %#v", tc.input, s, tc.want)
			continue
		}
		// Names round-trip.
		if b.Name() != tc.input {
			t.Errorf("Parse(%q).Name() = %q", tc.input, b.Name())
		}
	}
}

func TestByzantineFaultModel(t *testing.T) {
	m := Byzantine{}.FaultModel(5, 1)
	if m.Kind != fault.ModelByzantine || m.F != 1 || m.VotesRequired() != 2 || m.DetectionRank() != 3 {
		t.Errorf("default FaultModel(5,1) = %s", m)
	}
	m = Byzantine{Votes: 3}.FaultModel(7, 2)
	if m.VotesRequired() != 3 || m.DetectionRank() != 5 {
		t.Errorf("FaultModel(7,2)@3 = %s", m)
	}
}

func TestByzantineBuildReducesToCrashBase(t *testing.T) {
	// byzantine(n=5, f=1) at default votes 2 builds the crash base at
	// f' = 2: its trajectories must be exactly Proportional.Build(5, 2)
	// (ForPair(5, 2) picks proportional since 5 < 2*2+2).
	b := Byzantine{}
	got, err := b.Build(5, 1)
	if err != nil {
		t.Fatalf("Build(5,1): %v", err)
	}
	want, err := Proportional{}.Build(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d trajectories, want %d", len(got), len(want))
	}
	for i := range got {
		for _, tt := range []float64{0, 1, 3.7, 12, 55} {
			pg, err := trajectory.PositionAt(got[i].Legs(), got[i].TailOf(), tt)
			if err != nil {
				t.Fatal(err)
			}
			pw, err := trajectory.PositionAt(want[i].Legs(), want[i].TailOf(), tt)
			if err != nil {
				t.Fatal(err)
			}
			if pg != pw {
				t.Fatalf("robot %d at t=%v: %v, crash base: %v", i, tt, pg, pw)
			}
		}
	}
}

func TestByzantineAnalyticCR(t *testing.T) {
	// byzantine(5, 1) reduces to proportional(5, 2).
	cr, ok := Byzantine{}.AnalyticCR(5, 1)
	if !ok {
		t.Fatal("AnalyticCR(5,1) unavailable")
	}
	want, ok := Proportional{}.AnalyticCR(5, 2)
	if !ok || !numeric.AlmostEqual(cr, want, 1e-12) {
		t.Errorf("AnalyticCR(5,1) = %v, want crash value %v", cr, want)
	}
	// An explicit doubling base keeps ratio 9 at any feasible budget.
	cr, ok = Byzantine{Base: Doubling{}}.AnalyticCR(5, 2)
	if !ok || cr != 9 {
		t.Errorf("doubling-base AnalyticCR(5,2) = %v, %v; want 9", cr, ok)
	}
}

func TestByzantineBuildRejectsInfeasiblePairs(t *testing.T) {
	// Default votes f+1: rank 2f+1 must fit in n.
	if _, err := (Byzantine{}).Build(4, 2); err == nil {
		t.Error("Build(4,2) accepted: rank 5 > n=4")
	}
	// Explicit votes pushing rank past n.
	if _, err := (Byzantine{Votes: 5}).Build(5, 1); err == nil {
		t.Error("Build(5,1)@5 accepted: rank 6 > n=5")
	}
	if _, err := (Byzantine{}).Build(3, -1); err == nil {
		t.Error("negative f accepted")
	}
}

func TestByzantineMinDistanceForwarded(t *testing.T) {
	scaled, err := Byzantine{MinDistance: 4, Base: Proportional{}}.Build(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Proportional{MinDistance: 4}.Build(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scaled {
		pg, err := trajectory.PositionAt(scaled[i].Legs(), scaled[i].TailOf(), 10)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := trajectory.PositionAt(want[i].Legs(), want[i].TailOf(), 10)
		if err != nil {
			t.Fatal(err)
		}
		if pg != pw {
			t.Fatalf("robot %d: scaled %v, want %v", i, pg, pw)
		}
	}
}
