package membership

import (
	"fmt"
	"testing"

	"linesearch/internal/faultpoint"
)

// Partition chaos schedules: deterministic fault-point scripts over
// the loopback fabric, the membership half of `make chaos-partition`.
// Every schedule is seeded, so a failure replays exactly.

// partition arms directed link drops between two groups, both ways.
func partition(a, b []string) {
	for _, from := range a {
		for _, to := range b {
			faultpoint.Arm(fpLink+"."+from+"."+to, faultpoint.Rule{})
			faultpoint.Arm(fpLink+"."+to+"."+from, faultpoint.Rule{})
		}
	}
}

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("m%d", i)
	}
	return out
}

// TestPartitionSplitBrain splits a 5-node fleet 2|3, lets each side
// confirm the other dead, then heals and requires full re-convergence
// — no node may stay wedged in its partition-era view.
func TestPartitionSplitBrain(t *testing.T) {
	defer faultpoint.Reset()
	f := newTestFleet(t, 5, 101)
	for i := 0; i < 8; i++ {
		f.tick()
	}
	if !f.converged(5) {
		t.Fatal("fleet never converged before the split")
	}

	all := names(5)
	left, right := all[:2], all[2:]
	partition(left, right)
	sideConverged := func(side []string, want int) bool {
		for _, name := range side {
			var n *Node
			for _, cand := range f.nodes {
				if cand.Self().Addr == name {
					n = cand
				}
			}
			if len(n.View().AliveShards()) != want {
				return false
			}
		}
		return true
	}
	for i := 0; i < 60 && !(sideConverged(left, 2) && sideConverged(right, 3)); i++ {
		f.tick()
	}
	if !sideConverged(left, 2) {
		t.Fatalf("left side never shrank to itself: %d alive",
			len(f.nodes[0].View().AliveShards()))
	}
	if !sideConverged(right, 3) {
		t.Fatalf("right side never shrank to itself: %d alive",
			len(f.nodes[2].View().AliveShards()))
	}

	faultpoint.Reset()
	for i := 0; i < 60 && !f.converged(5); i++ {
		f.tick()
	}
	if !f.converged(5) {
		t.Fatalf("fleet never re-converged after heal: %q vs %q",
			f.nodes[0].View().Fingerprint(), f.nodes[4].View().Fingerprint())
	}
}

// TestPartitionAsymmetricHalfOpen drops every inbound link to one
// member while its outbound links stay up. The member keeps hearing
// its own suspicion in probe replies and refuting it, so it must
// never be confirmed dead — the gossip analogue of "a robot that
// still reports is not faulty".
func TestPartitionAsymmetricHalfOpen(t *testing.T) {
	defer faultpoint.Reset()
	f := newTestFleet(t, 4, 303)
	for i := 0; i < 8; i++ {
		f.tick()
	}
	faultpoint.Arm(fpSend+".m2", faultpoint.Rule{})
	for i := 0; i < 40; i++ {
		f.tick()
		for j, n := range f.nodes {
			for _, m := range n.View().Members {
				if m.Addr == "m2" && m.Status == Dead {
					t.Fatalf("tick %d: node m%d confirmed half-open m2 dead", i, j)
				}
			}
		}
	}
	if inc := f.nodes[2].Self().Incarnation; inc == 0 {
		t.Fatal("half-open member never had to refute a suspicion")
	}
}

// TestPartitionRoutersConverge puts two observers on opposite sides
// of a split and requires that after the heal both settle on the
// identical full shard set — the property that lets any number of
// linerouters share a ring without a coordination store.
func TestPartitionRoutersConverge(t *testing.T) {
	defer faultpoint.Reset()
	f := newTestFleet(t, 4, 505)
	var fps [2]string
	for i := 0; i < 2; i++ {
		i := i
		obs, err := newSeededNode(Config{
			Self:      Member{Addr: fmt.Sprintf("r%d", i), URL: fmt.Sprintf("mem://r%d", i), Role: RoleObserver},
			Seeds:     []string{"mem://m0", "mem://m3"},
			Transport: f.fabric,
			Logger:    quiet,
			OnChange:  func(v View) { fps[i] = v.Fingerprint() },
		}, 700+int64(i))
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		f.fabric.Join(obs.Self().URL, obs)
		f.nodes = append(f.nodes, obs)
	}
	for i := 0; i < 10; i++ {
		f.tick()
	}
	if fps[0] == "" || fps[0] != fps[1] {
		t.Fatalf("routers never agreed pre-split: %q vs %q", fps[0], fps[1])
	}

	// r0 with {m0,m1}, r1 with {m2,m3}.
	partition([]string{"m0", "m1", "r0"}, []string{"m2", "m3", "r1"})
	for i := 0; i < 50; i++ {
		f.tick()
	}
	if fps[0] == fps[1] {
		t.Fatal("split never diverged the router views (schedule is vacuous)")
	}

	faultpoint.Reset()
	for i := 0; i < 60 && fps[0] != fps[1]; i++ {
		f.tick()
	}
	if fps[0] != fps[1] {
		t.Fatalf("routers never re-agreed after heal: %q vs %q", fps[0], fps[1])
	}
	want := f.nodes[0].View().Fingerprint()
	if fps[0] != want || len(f.nodes[0].View().AliveShards()) != 4 {
		t.Fatalf("healed router view %q does not match the fleet's %q", fps[0], want)
	}
}
