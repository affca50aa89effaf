package membership

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"testing"

	"linesearch/internal/faultpoint"
)

// quiet discards membership transition logs in tests.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// testFleet is n shard nodes (plus optional observers) on one
// loopback fabric, all seeded to node 0.
type testFleet struct {
	fabric *Loopback
	nodes  []*Node
}

// newTestFleet builds n shard nodes named m0..m<n-1>. Every node gets
// its own PRNG seed derived from base so probe schedules differ but
// replay exactly.
// newSeededNode is NewNode with the probe-selection PRNG seeded per
// node, so a schedule over several nodes replays exactly.
func newSeededNode(cfg Config, seed int64) (*Node, error) {
	n, err := NewNode(cfg)
	if err == nil {
		n.rng = rand.New(rand.NewSource(seed))
	}
	return n, err
}

func newTestFleet(t *testing.T, n int, base int64) *testFleet {
	t.Helper()
	f := &testFleet{fabric: NewLoopback()}
	seeds := []string{"mem://m0"}
	for i := 0; i < n; i++ {
		node, err := newSeededNode(Config{
			Self:      Member{Addr: fmt.Sprintf("m%d", i), URL: fmt.Sprintf("mem://m%d", i)},
			Seeds:     seeds,
			Transport: f.fabric,
			Logger:    quiet,
		}, base+int64(i))
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		f.fabric.Join(node.Self().URL, node)
		f.nodes = append(f.nodes, node)
	}
	return f
}

// tick runs one protocol period on every registered node.
func (f *testFleet) tick() {
	for _, n := range f.nodes {
		n.Tick(context.Background())
	}
}

// converged reports whether every node sees the same alive shard set
// of the wanted size.
func (f *testFleet) converged(want int) bool {
	fp := f.nodes[0].View().Fingerprint()
	if len(f.nodes[0].View().AliveShards()) != want {
		return false
	}
	for _, n := range f.nodes[1:] {
		if n.View().Fingerprint() != fp {
			return false
		}
	}
	return true
}

func TestBootstrapConvergence(t *testing.T) {
	f := newTestFleet(t, 5, 42)
	for i := 0; i < 10 && !f.converged(5); i++ {
		f.tick()
	}
	if !f.converged(5) {
		t.Fatalf("fleet did not converge: %q vs %q",
			f.nodes[0].View().Fingerprint(), f.nodes[4].View().Fingerprint())
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{Transport: NewLoopback()}); err == nil {
		t.Fatal("missing Self.Addr accepted")
	}
	if _, err := NewNode(Config{Self: Member{Addr: "a"}}); err == nil {
		t.Fatal("missing Transport accepted")
	}
	n, err := NewNode(Config{Self: Member{Addr: "a:1"}, Transport: NewLoopback(), Logger: quiet})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	if got := n.Self(); got.URL != "http://a:1" || got.Role != RoleShard {
		t.Fatalf("defaults not applied: %+v", got)
	}
}

func TestObserverExcludedFromShards(t *testing.T) {
	f := newTestFleet(t, 3, 7)
	obs, err := newSeededNode(Config{
		Self:      Member{Addr: "router0", URL: "mem://router0", Role: RoleObserver},
		Seeds:     []string{"mem://m0"},
		Transport: f.fabric,
		Logger:    quiet,
	}, 99)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	f.fabric.Join(obs.Self().URL, obs)
	f.nodes = append(f.nodes, obs)
	for i := 0; i < 10; i++ {
		f.tick()
	}
	shards := obs.View().AliveShards()
	if len(shards) != 3 {
		t.Fatalf("observer sees %d shards, want 3: %+v", len(shards), shards)
	}
	for _, m := range shards {
		if m.Role != RoleShard {
			t.Fatalf("observer leaked into shard set: %+v", m)
		}
	}
	// And the shard nodes see the observer as a member but not a shard.
	for _, m := range f.nodes[0].View().AliveShards() {
		if m.Addr == "router0" {
			t.Fatal("observer appears in a shard node's shard set")
		}
	}
}

// TestSuspicionRefuted pins the no-false-positive property: an
// asymmetric link drop (A cannot reach B, everyone else can) makes A
// suspect B at worst, and B's refutation — carried back over the
// healthy links — keeps it alive past the suspicion timeout.
func TestSuspicionRefuted(t *testing.T) {
	defer faultpoint.Reset()
	f := newTestFleet(t, 4, 11)
	for i := 0; i < 6; i++ {
		f.tick()
	}
	faultpoint.Arm(fpLink+".m0.m1", faultpoint.Rule{})
	for i := 0; i < 20; i++ {
		f.tick()
	}
	for i, n := range f.nodes {
		for _, m := range n.View().Members {
			if m.Addr == "m1" && m.Status == Dead {
				t.Fatalf("node m%d confirmed m1 dead across a one-way link drop", i)
			}
		}
	}
	if got := len(f.nodes[0].View().AliveShards()); got != 4 {
		t.Fatalf("m0 alive set shrank to %d under an asymmetric drop", got)
	}
}

// TestDeadConfirmationAndRejoin pins the detection rule end to end: a
// blackholed member is suspected, confirmed dead after the timeout on
// every node, and rejoins (with a bumped incarnation) once the
// partition heals.
func TestDeadConfirmationAndRejoin(t *testing.T) {
	defer faultpoint.Reset()
	f := newTestFleet(t, 4, 23)
	for i := 0; i < 6; i++ {
		f.tick()
	}
	// Blackhole m3 in both directions: nothing reaches it, nothing
	// leaves it.
	faultpoint.Arm(fpSend+".m3", faultpoint.Rule{})
	for _, to := range []string{"m0", "m1", "m2"} {
		faultpoint.Arm(fpLink+".m3."+to, faultpoint.Rule{})
	}
	deadEverywhere := func() bool {
		for _, n := range f.nodes[:3] {
			found := false
			for _, m := range n.View().Members {
				if m.Addr == "m3" && m.Status == Dead {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	for i := 0; i < 40 && !deadEverywhere(); i++ {
		f.tick()
	}
	if !deadEverywhere() {
		t.Fatal("blackholed member never confirmed dead")
	}
	for _, n := range f.nodes[:3] {
		if got := len(n.View().AliveShards()); got != 3 {
			t.Fatalf("alive set is %d after confirmation, want 3", got)
		}
	}

	// Heal: m3 starts gossiping again, learns it was declared dead, and
	// refutes with a higher incarnation.
	faultpoint.Reset()
	for i := 0; i < 30 && !f.converged(4); i++ {
		f.tick()
	}
	if !f.converged(4) {
		t.Fatal("fleet did not re-converge after the partition healed")
	}
	if inc := f.nodes[3].Self().Incarnation; inc == 0 {
		t.Fatal("rejoined member never bumped its incarnation")
	}
}

// TestOnChangeFiresOnAliveSetChanges pins the subscription contract:
// OnChange fires when (and only when) the alive shard set changes.
func TestOnChangeFiresOnAliveSetChanges(t *testing.T) {
	defer faultpoint.Reset()
	fabric := NewLoopback()
	var changes []string
	watched, err := newSeededNode(Config{
		Self:      Member{Addr: "m0", URL: "mem://m0"},
		Transport: fabric,
		Logger:    quiet,
		OnChange:  func(v View) { changes = append(changes, v.Fingerprint()) },
	}, 5)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	fabric.Join("mem://m0", watched)
	peer, err := newSeededNode(Config{
		Self:      Member{Addr: "m1", URL: "mem://m1"},
		Seeds:     []string{"mem://m0"},
		Transport: fabric,
		Logger:    quiet,
	}, 6)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	fabric.Join("mem://m1", peer)

	peer.Tick(context.Background()) // m1 contacts m0; m0 discovers m1
	if len(changes) != 1 {
		t.Fatalf("discovery fired %d changes, want 1: %v", len(changes), changes)
	}
	for i := 0; i < 5; i++ {
		peer.Tick(context.Background())
		watched.Tick(context.Background())
	}
	if len(changes) != 1 {
		t.Fatalf("steady state fired spurious changes: %v", changes)
	}

	// Kill m1; m0 must fire exactly one more change when it confirms.
	faultpoint.Arm(fpSend+".m1", faultpoint.Rule{})
	for i := 0; i < 10; i++ {
		watched.Tick(context.Background())
	}
	if len(changes) != 2 {
		t.Fatalf("confirmation fired %d changes, want 2: %v", len(changes), changes)
	}
	if changes[1] != "mem://m0" {
		t.Fatalf("final view still lists the dead member: %q", changes[1])
	}
}

// TestProbeScheduleDeterministic pins replayability: two nodes with
// the same seed and the same inbound history probe in the same order.
func TestProbeScheduleDeterministic(t *testing.T) {
	run := func() []string {
		fabric := NewLoopback()
		var order []string
		rec := recordingTransport{fabric: fabric, order: &order}
		n, err := newSeededNode(Config{
			Self:      Member{Addr: "m0", URL: "mem://m0"},
			Transport: &rec,
			Logger:    quiet,
		}, 77)
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		fabric.Join("mem://m0", n)
		peers := []Member{
			{Addr: "m1", URL: "mem://m1"},
			{Addr: "m2", URL: "mem://m2"},
			{Addr: "m3", URL: "mem://m3"},
		}
		n.merge(peers)
		for _, p := range peers {
			pn, _ := NewNode(Config{Self: p, Transport: fabric, Logger: quiet})
			fabric.Join(p.URL, pn)
		}
		for i := 0; i < 9; i++ {
			n.Tick(context.Background())
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("schedule lengths differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe schedules diverge at %d: %v vs %v", i, a, b)
		}
	}
}

// recordingTransport wraps the loopback fabric, logging probe targets.
type recordingTransport struct {
	fabric *Loopback
	order  *[]string
}

func (r *recordingTransport) Exchange(ctx context.Context, url string, msg Message) (Message, error) {
	*r.order = append(*r.order, url)
	return r.fabric.Exchange(ctx, url, msg)
}
