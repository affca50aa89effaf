package cluster

import (
	"fmt"
	"testing"
)

// corpus returns 10k synthetic plan-key hashes, the keyspace the
// balance and reshuffle properties are measured over.
func corpus(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("plan-key-%d", i)
	}
	return keys
}

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("10.0.0.%d:8081", i+1)
	}
	return out
}

// TestRingBalance pins the distribution property: with DefaultVNodes
// virtual nodes, every backend's share of a 10k-key corpus stays
// within a factor of the ideal 1/N share, for every fleet size from 2
// to 64. The 0.45–1.8x bound is what 160 vnodes and a uniform 64-bit
// hash deliver with margin; tightening vnodes or swapping the hash
// must answer to this test.
func TestRingBalance(t *testing.T) {
	keys := corpus(10000)
	for n := 2; n <= 64; n *= 2 {
		r := NewRing(DefaultVNodes)
		for _, m := range members(n) {
			r.Add(m)
		}
		counts := make(map[string]int, n)
		for _, k := range keys {
			counts[r.Owner(k)]++
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d members own keys", n, len(counts))
		}
		ideal := float64(len(keys)) / float64(n)
		for m, c := range counts {
			ratio := float64(c) / ideal
			if ratio < 0.45 || ratio > 1.8 {
				t.Errorf("n=%d: member %s owns %d keys (%.2fx ideal share, want 0.45–1.8x)", n, m, c, ratio)
			}
		}
	}
}

// TestRingMinimalReshuffleOnAdd pins the consistent-hashing property
// the warm transfer rests on: adding one backend to an N-member ring
// remaps about 1/(N+1) of the corpus and not a key more than ~1.5x
// that. A naive mod-N placement would remap nearly everything.
func TestRingMinimalReshuffleOnAdd(t *testing.T) {
	keys := corpus(10000)
	for _, n := range []int{2, 4, 8, 16, 32} {
		r := NewRing(DefaultVNodes)
		ms := members(n + 1)
		for _, m := range ms[:n] {
			r.Add(m)
		}
		before := make(map[string]string, len(keys))
		for _, k := range keys {
			before[k] = r.Owner(k)
		}
		r.Add(ms[n])
		moved := 0
		for _, k := range keys {
			owner := r.Owner(k)
			if owner != before[k] {
				moved++
				if owner != ms[n] {
					t.Fatalf("n=%d: key %s moved %s -> %s, not to the new member", n, k, before[k], owner)
				}
			}
		}
		expected := float64(len(keys)) / float64(n+1)
		if f := float64(moved); f > 1.5*expected {
			t.Errorf("n=%d: add remapped %d keys, want <= %.0f (1.5x the 1/(N+1) share)", n, moved, 1.5*expected)
		}
		if moved == 0 {
			t.Errorf("n=%d: add remapped nothing; the new member owns no keys", n)
		}
	}
}

// TestRingMinimalReshuffleOnRemove is the mirror property: removing
// one member only remaps the keys it owned, and every one of them.
func TestRingMinimalReshuffleOnRemove(t *testing.T) {
	keys := corpus(10000)
	for _, n := range []int{3, 8, 32} {
		r := NewRing(DefaultVNodes)
		ms := members(n)
		for _, m := range ms {
			r.Add(m)
		}
		before := make(map[string]string, len(keys))
		victimOwned := 0
		for _, k := range keys {
			before[k] = r.Owner(k)
			if before[k] == ms[0] {
				victimOwned++
			}
		}
		r.Remove(ms[0])
		moved := 0
		for _, k := range keys {
			owner := r.Owner(k)
			if owner != before[k] {
				moved++
				if before[k] != ms[0] {
					t.Fatalf("n=%d: key %s moved %s -> %s though its owner stayed", n, k, before[k], owner)
				}
			}
		}
		if moved != victimOwned {
			t.Errorf("n=%d: remove remapped %d keys, want exactly the victim's %d", n, moved, victimOwned)
		}
	}
}

// TestRingOwnersDeterministicFailover pins the failover walk: Owners
// yields distinct members, the first is Owner, and repeated calls
// agree — a retried request must walk the same path.
func TestRingOwnersDeterministicFailover(t *testing.T) {
	r := NewRing(DefaultVNodes)
	ms := members(5)
	for _, m := range ms {
		r.Add(m)
	}
	for _, k := range corpus(100) {
		owners := r.Owners(k, 5)
		if len(owners) != 5 {
			t.Fatalf("key %s: got %d owners, want 5", k, len(owners))
		}
		if owners[0] != r.Owner(k) {
			t.Fatalf("key %s: Owners[0] = %s, Owner = %s", k, owners[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %s: duplicate owner %s", k, o)
			}
			seen[o] = true
		}
		again := r.Owners(k, 5)
		for i := range owners {
			if owners[i] != again[i] {
				t.Fatalf("key %s: owner walk not deterministic at %d", k, i)
			}
		}
	}
}

// TestRingEdgeCases covers the empty ring, n clamping and idempotent
// mutation.
func TestRingEdgeCases(t *testing.T) {
	r := NewRing(0) // 0 falls back to DefaultVNodes
	if got := r.Owner("k"); got != "" {
		t.Fatalf("empty ring Owner = %q, want empty", got)
	}
	if got := r.Owners("k", 3); got != nil {
		t.Fatalf("empty ring Owners = %v, want nil", got)
	}
	r.Add("a:1")
	r.Add("a:1") // idempotent
	if r.Len() != 1 {
		t.Fatalf("Len = %d after duplicate Add", r.Len())
	}
	if got := r.Owners("k", 10); len(got) != 1 {
		t.Fatalf("Owners(n>members) = %v, want 1 member", got)
	}
	r.Remove("missing") // no-op
	r.Remove("a:1")
	if r.Len() != 0 || r.Owner("k") != "" {
		t.Fatalf("ring not empty after removing sole member")
	}
}

// Remove deletes a member (unknown members are a no-op) and rebuilds
// the point set.
func (r *Ring) Remove(member string) {
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	r.rebuild()
}
