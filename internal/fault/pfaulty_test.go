package fault

import (
	"strings"
	"testing"
)

func TestStochasticKindNames(t *testing.T) {
	cases := []struct {
		kind Kind
		name string
	}{
		{PFaulty, "pfaulty"},
	}
	for _, c := range cases {
		if got := c.kind.String(); got != c.name {
			t.Errorf("%d.String() = %q, want %q", c.kind, got, c.name)
		}
		if !c.kind.Faulty() {
			t.Errorf("%v.Faulty() = false, want true", c.kind)
		}
		if c.kind.Confirms() {
			t.Errorf("%v.Confirms() = true, want false (worst case)", c.kind)
		}
	}
}

func TestPFaultyModel(t *testing.T) {
	m := PFaultyModel(1, 0.3)
	if m.Kind != ModelPFaulty || m.F != 1 || m.P != 0.3 {
		t.Fatalf("PFaultyModel(1, 0.3) = %+v", m)
	}
	if err := m.Validate(3); err != nil {
		t.Fatalf("Validate(3): %v", err)
	}
	if got := m.VotesRequired(); got != 1 {
		t.Errorf("VotesRequired() = %d, want 1 (first truthful claim is trusted)", got)
	}
	if got := m.DetectionRank(); got != 2 {
		t.Errorf("DetectionRank() = %d, want f+1 = 2", got)
	}
	if got := m.WorstKind(); got != Crash {
		t.Errorf("WorstKind() = %v, want Crash", got)
	}
	if !m.Admits(Crash) || !m.Admits(PFaulty) {
		t.Errorf("pfaulty model must admit crash and pfaulty kinds")
	}
	if m.Admits(ByzantineLiar) {
		t.Errorf("pfaulty model must not admit byzantine kinds")
	}
	if got := m.String(); !strings.Contains(got, "pfaulty(f=1,p=0.3") {
		t.Errorf("String() = %q, want pfaulty(f=1,p=0.3)", got)
	}
}

func TestPFaultyModelValidateRejectsBadP(t *testing.T) {
	for _, p := range []float64{-0.1, 1, 1.5, nan()} {
		m := PFaultyModel(0, p)
		if err := m.Validate(2); err == nil {
			t.Errorf("Validate accepted p=%v", p)
		}
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func TestPFaultySetValidation(t *testing.T) {
	m := PFaultyModel(1, 0.25)
	set := Set{Crash, PFaulty, Reliable}
	// PFaulty entries are ambient, but still count as faulty for the
	// budget check: Crash + PFaulty = 2 > f = 1.
	if err := set.Validate(3, m); err == nil {
		t.Fatalf("Validate accepted 2 faulty entries over budget 1")
	}
	set = Set{Crash, Reliable, Reliable}
	if err := set.Validate(3, m); err != nil {
		t.Fatalf("Validate rejected a budget-respecting set: %v", err)
	}
}
