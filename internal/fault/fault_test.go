package fault

import "testing"

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Reliable: "reliable", Crash: "crash", ByzantineSilent: "silent", ByzantineLiar: "liar", Kind(99): "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}

func TestKindPredicates(t *testing.T) {
	cases := []struct {
		k                Kind
		faulty, confirms bool
	}{
		{Reliable, false, true},
		{Crash, true, false},
		{ByzantineSilent, true, false},
		{ByzantineLiar, true, false},
	}
	for _, tc := range cases {
		if tc.k.Faulty() != tc.faulty || tc.k.Confirms() != tc.confirms {
			t.Errorf("%s: Faulty=%v Confirms=%v, want %v %v",
				tc.k, tc.k.Faulty(), tc.k.Confirms(), tc.faulty, tc.confirms)
		}
	}
}

func TestSetString(t *testing.T) {
	s := Set{Reliable, ByzantineLiar, Crash, Reliable, ByzantineLiar}
	if got := s.String(); got != "1:liar,2:crash,4:liar" {
		t.Errorf("String() = %q", got)
	}
	if got := (Set{Reliable, Reliable}).String(); got != "none" {
		t.Errorf("all-reliable String() = %q", got)
	}
}

func TestSetValidate(t *testing.T) {
	m := ByzantineModel(1, 0)
	if err := (Set{Reliable, ByzantineLiar, Reliable}).Validate(3, m); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	if err := (Set{Reliable, ByzantineLiar}).Validate(3, m); err == nil {
		t.Error("wrong-length set accepted")
	}
	if err := (Set{Crash, Reliable, Reliable}).Validate(3, m); err == nil {
		t.Error("crash kind accepted by byzantine model")
	}
	if err := (Set{ByzantineLiar, ByzantineSilent, Reliable}).Validate(3, m); err == nil {
		t.Error("over-budget set accepted")
	}
	if err := (Set{ByzantineLiar, Reliable, Reliable}).Validate(3, CrashModel(1)); err == nil {
		t.Error("byzantine kind accepted by crash model")
	}
}

func TestModelVotesAndRank(t *testing.T) {
	cases := []struct {
		m           Model
		votes, rank int
	}{
		{CrashModel(0), 1, 1},
		{CrashModel(2), 1, 3},
		{ByzantineModel(1, 0), 2, 3},
		{ByzantineModel(2, 0), 3, 5},
		{ByzantineModel(2, 1), 1, 3},
		{ByzantineModel(1, 3), 3, 4},
	}
	for _, tc := range cases {
		if got := tc.m.VotesRequired(); got != tc.votes {
			t.Errorf("%s VotesRequired = %d, want %d", tc.m, got, tc.votes)
		}
		if got := tc.m.DetectionRank(); got != tc.rank {
			t.Errorf("%s DetectionRank = %d, want %d", tc.m, got, tc.rank)
		}
	}
}

func TestModelValidate(t *testing.T) {
	if err := CrashModel(1).Validate(3); err != nil {
		t.Errorf("crash(f=1) on n=3: %v", err)
	}
	if err := ByzantineModel(1, 0).Validate(3); err != nil {
		t.Errorf("byzantine(f=1) on n=3: %v", err)
	}
	// Default byzantine rank 2f+1 exceeds n.
	if err := ByzantineModel(1, 0).Validate(2); err == nil {
		t.Error("byzantine(f=1) on n=2 accepted")
	}
	if err := CrashModel(3).Validate(3); err == nil {
		t.Error("f=n accepted")
	}
	if err := CrashModel(-1).Validate(3); err == nil {
		t.Error("negative budget accepted")
	}
	if err := ByzantineModel(1, -2).Validate(5); err == nil {
		t.Error("negative votes accepted")
	}
	// Explicit votes push the rank beyond the fleet.
	if err := ByzantineModel(1, 5).Validate(5); err == nil {
		t.Error("rank 6 on n=5 accepted")
	}
}

func TestModelStrings(t *testing.T) {
	if got := CrashModel(2).String(); got != "crash(f=2)" {
		t.Errorf("crash String = %q", got)
	}
	if got := ByzantineModel(2, 0).String(); got != "byzantine(f=2,votes=3)" {
		t.Errorf("byzantine String = %q", got)
	}
	if got := ByzantineModel(2, 1).String(); got != "byzantine(f=2,votes=1)" {
		t.Errorf("byzantine explicit-votes String = %q", got)
	}
}

func TestModelWorstKindAndAdmits(t *testing.T) {
	if CrashModel(1).WorstKind() != Crash {
		t.Error("crash worst kind")
	}
	if ByzantineModel(1, 0).WorstKind() != ByzantineSilent {
		t.Error("byzantine worst kind")
	}
	if kinds := ByzantineModel(1, 0).FaultyKinds(); len(kinds) != 2 {
		t.Errorf("byzantine kinds = %v", kinds)
	}
	if kinds := CrashModel(1).FaultyKinds(); len(kinds) != 1 || kinds[0] != Crash {
		t.Errorf("crash kinds = %v", kinds)
	}
}

func TestModelWithF(t *testing.T) {
	m := ByzantineModel(1, 0).WithF(2)
	if m.F != 2 || m.VotesRequired() != 3 {
		t.Errorf("WithF default votes: %+v votes=%d", m, m.VotesRequired())
	}
	m = ByzantineModel(1, 2).WithF(3)
	if m.VotesRequired() != 2 {
		t.Errorf("WithF explicit votes drifted: %d", m.VotesRequired())
	}
}
