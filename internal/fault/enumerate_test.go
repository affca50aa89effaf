package fault

import (
	"testing"
)

// countsFor tallies an enumeration by faulty-robot count.
func countsFor(t *testing.T, n int, m Model) map[int]int {
	t.Helper()
	sets, err := EnumerateSets(n, m)
	if err != nil {
		t.Fatalf("EnumerateSets(%d, %s): %v", n, m, err)
	}
	counts := make(map[int]int)
	seen := make(map[string]bool, len(sets))
	for _, s := range sets {
		if len(s) != n {
			t.Fatalf("set %v has length %d, want %d", s, len(s), n)
		}
		if err := s.Validate(n, m); err != nil {
			t.Fatalf("enumerated set %v invalid: %v", s, err)
		}
		key := s.String()
		if seen[key] {
			t.Fatalf("duplicate assignment %v", s)
		}
		seen[key] = true
		counts[s.NumFaulty()]++
	}
	return counts
}

func TestEnumerateCrash(t *testing.T) {
	// n=4, f=2, one kind: C(4,0) + C(4,1) + C(4,2) = 1 + 4 + 6.
	counts := countsFor(t, 4, CrashModel(2))
	if counts[0] != 1 || counts[1] != 4 || counts[2] != 6 {
		t.Errorf("crash enumeration counts = %v", counts)
	}
}

func TestEnumerateByzantine(t *testing.T) {
	// n=4, f=2, two kinds: 1 + 4*2 + 6*4 = 33 assignments.
	counts := countsFor(t, 4, ByzantineModel(2, 0))
	if counts[0] != 1 || counts[1] != 8 || counts[2] != 24 {
		t.Errorf("byzantine enumeration counts = %v", counts)
	}
}

func TestEnumerateFirstIsReliable(t *testing.T) {
	sets, err := EnumerateSets(3, ByzantineModel(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if sets[0].NumFaulty() != 0 {
		t.Errorf("first assignment is %v, want all-reliable", sets[0])
	}
}

func TestEnumerateRejectsBadInputs(t *testing.T) {
	if _, err := EnumerateSets(0, CrashModel(0)); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := EnumerateSets(3, CrashModel(3)); err == nil {
		t.Error("f=n accepted")
	}
	if _, err := EnumerateSets(3, CrashModel(-1)); err == nil {
		t.Error("negative f accepted")
	}
}

func TestEnumerateCapRefusesExplosion(t *testing.T) {
	// C(40, 20)*2^20 alone dwarfs the cap; the call must refuse, not hang.
	if _, err := EnumerateSets(40, ByzantineModel(20, 0)); err == nil {
		t.Error("explosive enumeration accepted")
	}
}

func TestCountAssignments(t *testing.T) {
	if got := countAssignments(4, 2, 1); got != 11 {
		t.Errorf("countAssignments(4,2,1) = %d, want 11", got)
	}
	if got := countAssignments(4, 2, 2); got != 33 {
		t.Errorf("countAssignments(4,2,2) = %d, want 33", got)
	}
	if got := countAssignments(64, 32, 2); got != MaxEnumeration+1 {
		t.Errorf("countAssignments should saturate, got %d", got)
	}
}

// NumFaulty counts the robots with a non-reliable kind.
func (s Set) NumFaulty() int {
	n := 0
	for _, k := range s {
		if k.Faulty() {
			n++
		}
	}
	return n
}
