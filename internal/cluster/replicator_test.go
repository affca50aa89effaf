package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"linesearch/internal/faultpoint"
	"linesearch/internal/service"
	"linesearch/internal/sweep"
	"linesearch/internal/telemetry/journal"
)

// eventsDumpDirEnv names the directory a failed test dumps each node's
// /debug/events JSON into. The chaos CI jobs set it and upload the
// directory as an artifact, so a red partition run ships the journals
// needed for the postmortem.
const eventsDumpDirEnv = "LINESEARCH_EVENTS_DUMP_DIR"

// dumpEvents writes n's event journal — rendered through the same
// handler that serves /debug/events, so the artifact matches what an
// operator would have curled — into dir.
func dumpEvents(t *testing.T, dir string, n *replicaNode) {
	rec := httptest.NewRecorder()
	journal.Handler(n.jrnl)(rec, httptest.NewRequest(http.MethodGet, "/debug/events", nil))
	host := strings.TrimPrefix(n.srv.URL, "http://")
	name := strings.NewReplacer("/", "_", ":", "-").Replace(t.Name()+"-"+host) + ".json"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("events dump: %v", err)
		return
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, rec.Body.Bytes(), 0o644); err != nil {
		t.Logf("events dump: %v", err)
		return
	}
	t.Logf("events journal dumped to %s", path)
}

// replicaNode is one backend with a replica store and a replicator:
// the full replication triangle in-process.
type replicaNode struct {
	svc   *service.Service
	srv   *httptest.Server
	store *sweep.ReplicaStore
	mgr   *sweep.Manager
	rep   *Replicator
	jrnl  *journal.Journal
	// accepted sums Replicate's return values: checkpoints a peer took.
	accepted atomic.Int64
}

func (n *replicaNode) close() {
	n.srv.Close()
	n.svc.Close()
}

// newReplicaNode builds a backend whose sweep manager streams every
// checkpoint through a Replicator, exactly as linesearchd wires it.
// Optional tweaks adjust the sweep config (the chaos suite slows
// evaluation and checkpoints every cell so a kill lands mid-flight).
func newReplicaNode(t *testing.T, tweaks ...func(*sweep.Config)) *replicaNode {
	t.Helper()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	n := &replicaNode{}
	n.store = sweep.NewReplicaStore(t.TempDir(), logger)
	home := t.TempDir()
	sweepCfg := sweep.Config{
		Dir:        home,
		Workers:    1,
		Logger:     logger,
		ReplicaDir: n.store.Dir(),
		OnCheckpoint: func(cp sweep.Checkpoint) {
			if n.rep != nil {
				n.accepted.Add(int64(n.rep.Replicate(context.Background(), cp)))
			}
		},
	}
	for _, tweak := range tweaks {
		tweak(&sweepCfg)
	}
	n.jrnl = journal.New(0)
	if dir := os.Getenv(eventsDumpDirEnv); dir != "" {
		t.Cleanup(func() {
			if t.Failed() {
				dumpEvents(t, dir, n)
			}
		})
	}
	n.mgr = sweep.NewManager(sweepCfg)
	n.svc = service.New(service.Config{Logger: logger, Sweeps: n.mgr, Replicas: n.store, Journal: n.jrnl})
	n.srv = httptest.NewServer(n.svc.Handler())
	rep, err := NewReplicator(ReplicatorConfig{
		Self:    n.srv.URL,
		Logger:  logger,
		Journal: n.jrnl,
		LocalDigest: func() map[string]sweep.CheckpointInfo {
			out := sweep.ScanCheckpoints(home)
			for id, info := range n.store.Digest() {
				if held, ok := out[id]; !ok || info.Newer(held) {
					out[id] = info
				}
			}
			return out
		},
		LoadLocal: func(id string) (*sweep.Checkpoint, error) {
			if cp, err := sweep.LoadCheckpoint(home, id); err == nil && cp != nil {
				return cp, nil
			}
			return n.store.Get(id)
		},
		Apply: n.store.Put,
	})
	if err != nil {
		t.Fatalf("NewReplicator: %v", err)
	}
	n.rep = rep
	return n
}

// runSweep submits a small sweep on node and waits for it.
func runSweep(t *testing.T, n *replicaNode) string {
	t.Helper()
	j, err := n.mgr.Submit(sweep.Spec{N: []int{3}, F: []int{1}, XMax: 8})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-j.Done()
	if st := j.Status(); st.State != sweep.StateDone {
		t.Fatalf("sweep finished %s: %+v", st.State, st)
	}
	return j.Status().ID
}

func TestReplicatorStreamsToOwner(t *testing.T) {
	a, b := newReplicaNode(t), newReplicaNode(t)
	defer a.close()
	defer b.close()
	members := []string{a.srv.URL, b.srv.URL}
	a.rep.SetMembers(members)
	b.rep.SetMembers(members)

	id := runSweep(t, a)

	// b's replica store must now hold a's terminal checkpoint with a's
	// checksum, byte for byte.
	got, err := b.store.Get(id)
	if err != nil || got == nil {
		t.Fatalf("replica missing on peer: %v, %v", got, err)
	}
	home, lerr := sweep.LoadCheckpoint(a.mgr.Dir(), id)
	if lerr != nil || home == nil {
		t.Fatalf("home checkpoint: %v, %v", home, lerr)
	}
	if got.Checksum != home.Checksum {
		t.Fatalf("replica checksum %s != home %s", got.Checksum, home.Checksum)
	}
	if a.accepted.Load() == 0 {
		t.Fatal("Replicate reported no peer accepting a push")
	}
}

// TestReplicatorHintedHandoff downs the peer during the sweep, then
// heals it: the checkpoints must arrive via hint replay in the next
// anti-entropy pass, and converge to the home checksum.
func TestReplicatorHintedHandoff(t *testing.T) {
	defer faultpoint.Reset()
	a, b := newReplicaNode(t), newReplicaNode(t)
	defer a.close()
	defer b.close()
	members := []string{a.srv.URL, b.srv.URL}
	a.rep.SetMembers(members)
	b.rep.SetMembers(members)

	bName, _ := memberName(b.srv.URL)
	faultpoint.Arm(fpReplicate+"."+bName, faultpoint.Rule{})
	id := runSweep(t, a)

	if got, _ := b.store.Get(id); got != nil {
		t.Fatal("checkpoint reached the downed peer")
	}
	if journalled(a, journal.HintSpool) == 0 || hintsPending(a.rep) == 0 {
		t.Fatalf("no hints spooled while peer was down: %d journalled, %d pending",
			journalled(a, journal.HintSpool), hintsPending(a.rep))
	}

	faultpoint.Reset()
	if rep := a.rep.AntiEntropy(context.Background()); rep == 0 && journalled(a, journal.HintReplay) == 0 {
		t.Fatal("anti-entropy neither replayed hints nor repaired")
	}
	got, err := b.store.Get(id)
	if err != nil || got == nil {
		t.Fatalf("replica still missing after heal: %v, %v", got, err)
	}
	home, _ := sweep.LoadCheckpoint(a.mgr.Dir(), id)
	if home == nil || got.Checksum != home.Checksum {
		t.Fatalf("replica did not converge to the home checksum")
	}
	if pending := hintsPending(a.rep); pending != 0 {
		t.Fatalf("%d hints still pending after replay", pending)
	}
}

// TestRouterWalkStartsWithReplicaOwners pins the placement agreement
// sweep failover rests on: for fleets of 2–6 backends, the router's
// candidate walk for every sweep API request starts with exactly the
// replicator's owners, so a sweep resubmitted after its home dies lands
// on a backend that holds its replica.
func TestRouterWalkStartsWithReplicaOwners(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	rng := rand.New(rand.NewSource(1))
	for fleet := 0; fleet < 200; fleet++ {
		size := 2 + fleet%5
		urls := make([]string, size)
		for i := range urls {
			urls[i] = fmt.Sprintf("http://10.%d.%d.%d:%d", rng.Intn(256), rng.Intn(256), rng.Intn(256), 1024+rng.Intn(60000))
		}
		router, err := New(Config{Backends: urls, HealthInterval: -1, Logger: logger})
		if err != nil {
			t.Fatalf("fleet %v: New: %v", urls, err)
		}
		rep, err := NewReplicator(ReplicatorConfig{
			Self:        urls[rng.Intn(size)],
			RF:          size,
			Logger:      logger,
			LocalDigest: func() map[string]sweep.CheckpointInfo { return nil },
			LoadLocal:   func(string) (*sweep.Checkpoint, error) { return nil, nil },
			Apply:       func(sweep.Checkpoint) error { return nil },
		})
		if err != nil {
			t.Fatalf("fleet %v: NewReplicator: %v", urls, err)
		}
		rep.SetMembers(urls)
		owners := rep.Owners()
		for _, req := range []*http.Request{
			httptest.NewRequest(http.MethodPost, "/v1/sweeps", nil),
			httptest.NewRequest(http.MethodGet, "/v1/sweeps/sw-1/result", nil),
		} {
			key, _ := routingPolicy(req)
			var walk []string
			for _, b := range router.candidates(key) {
				walk = append(walk, b.name)
			}
			if len(walk) < len(owners) || !slices.Equal(walk[:len(owners)], owners) {
				t.Fatalf("fleet %v, %s %s: router walk %v does not start with replica owners %v",
					urls, req.Method, req.URL.Path, walk, owners)
			}
		}
		router.Close()
	}
}

// TestReplicatorHintSpoolBounded pins the handoff bound: latest-wins
// per job, oldest job evicted at the limit.
func TestReplicatorHintSpoolBounded(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	jrnl := journal.New(0)
	rep, err := NewReplicator(ReplicatorConfig{
		Self:        "http://127.0.0.1:1",
		Logger:      logger,
		Journal:     jrnl,
		LocalDigest: func() map[string]sweep.CheckpointInfo { return nil },
		LoadLocal:   func(string) (*sweep.Checkpoint, error) { return nil, nil },
		Apply:       func(sweep.Checkpoint) error { return nil },
	})
	if err != nil {
		t.Fatalf("NewReplicator: %v", err)
	}
	rep.hintLimit = 2
	cp := func(id string, cells int) sweep.Checkpoint {
		c := sweep.Checkpoint{ID: id}
		for i := 0; i < cells; i++ {
			c.Cells = append(c.Cells, sweep.Cell{Index: i})
		}
		return c
	}
	rep.hint(context.Background(), "peer", cp("job-1", 1))
	rep.hint(context.Background(), "peer", cp("job-1", 2)) // latest-wins: still one entry
	rep.hint(context.Background(), "peer", cp("job-2", 1))
	rep.hint(context.Background(), "peer", cp("job-3", 1)) // evicts job-1
	pending, dropped := hintsPending(rep), jrnl.Counts()["hint_drop"]
	if pending != 2 || dropped != 1 {
		t.Fatalf("spool = %d pending / %d dropped, want 2 / 1", pending, dropped)
	}
	hints := rep.takeHints("peer")
	if len(hints) != 2 || hints[0].ID != "job-2" || hints[1].ID != "job-3" {
		t.Fatalf("drained hints = %v, want job-2 then job-3", hints)
	}
}

// TestReplicatorAntiEntropyPulls makes the peer strictly ahead (it ran
// the sweep; we hold nothing) and requires the local side to pull the
// checkpoint during its own anti-entropy pass.
func TestReplicatorAntiEntropyPulls(t *testing.T) {
	a, b := newReplicaNode(t), newReplicaNode(t)
	defer a.close()
	defer b.close()
	members := []string{a.srv.URL, b.srv.URL}
	// Only b's replicator knows the fleet; a never saw the checkpoint.
	b.rep.SetMembers(members)
	faultpoint.Arm(fpReplicate, faultpoint.Rule{})
	id := runSweep(t, b)
	faultpoint.Reset()
	// Drop the spooled hints: this test exercises the digest path.
	for _, member := range b.rep.Owners() {
		b.rep.takeHints(member)
	}

	a.rep.SetMembers(members)
	if got, _ := a.store.Get(id); got != nil {
		t.Fatal("test setup leaked the checkpoint to a")
	}
	if repairs := a.rep.AntiEntropy(context.Background()); repairs == 0 {
		t.Fatalf("anti-entropy found nothing to pull (%d repairs journalled)",
			journalled(a, journal.AntiEntropyRepair))
	}
	got, err := a.store.Get(id)
	if err != nil || got == nil {
		t.Fatalf("pull repair did not land: %v, %v", got, err)
	}
	home, _ := sweep.LoadCheckpoint(b.mgr.Dir(), id)
	if home == nil || got.Checksum != home.Checksum {
		t.Fatal("pulled replica does not match the peer's home checksum")
	}
}

func TestReplicatorValidation(t *testing.T) {
	digest := func() map[string]sweep.CheckpointInfo { return nil }
	load := func(string) (*sweep.Checkpoint, error) { return nil, nil }
	apply := func(sweep.Checkpoint) error { return nil }
	if _, err := NewReplicator(ReplicatorConfig{LocalDigest: digest, LoadLocal: load, Apply: apply}); err == nil {
		t.Fatal("NewReplicator accepted an empty Self")
	}
	if _, err := NewReplicator(ReplicatorConfig{Self: "http://ok:1"}); err == nil {
		t.Fatal("NewReplicator accepted missing accessors")
	}
	if _, err := NewReplicator(ReplicatorConfig{Self: "not a url", LocalDigest: digest, LoadLocal: load, Apply: apply}); err == nil {
		t.Fatal("NewReplicator accepted a bad Self URL")
	}
}

// hintsPending is the replicator's current handoff spool size across
// peers.
func hintsPending(r *Replicator) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	pending := 0
	for _, spool := range r.hints {
		pending += len(spool.order)
	}
	return pending
}

// journalled is how many events of kind the node's journal recorded.
func journalled(n *replicaNode, kind journal.Kind) int64 {
	return n.jrnl.Counts()[kind.String()]
}

// Owners returns the ring members owning the sweep key right now, up
// to RF, in preference order — the home first.
func (r *Replicator) Owners() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Owners(SweepsRingKey, r.cfg.RF)
}
