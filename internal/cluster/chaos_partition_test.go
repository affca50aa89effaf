package cluster

// The partition chaos suite: the replication layer under the failures
// it exists for. Every test is deterministic — partitions are injected
// with fault points, health voting is driven by explicit ProbeAll
// calls, and sweep evaluation is pure — so a failure replays exactly.
//
// The three invariants pinned here are the fleet's durability
// contract:
//
//  1. Killing the sweep home mid-run loses zero cells: the job's
//     checkpoints already live on the replica owner, and a resubmit
//     through the router lands there and resumes.
//  2. Replicas converge after a partition heals: hinted handoff and
//     anti-entropy leave every owner holding byte-identical
//     checkpoints (equal checksums), with no hints left pending.
//  3. Reads proxied through a degraded fleet stay byte-identical to a
//     healthy single process: failover changes which backend answers,
//     never what it answers.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"linesearch/internal/faultpoint"
	"linesearch/internal/service"
	"linesearch/internal/sweep"
	"linesearch/internal/telemetry/journal"
)

// nodeEvents fetches one node's /debug/events, optionally filtered by
// kind, through the same HTTP surface an operator (or the CI artifact
// dump) uses.
func nodeEvents(t *testing.T, n *replicaNode, kind string) []journal.Event {
	t.Helper()
	url := n.srv.URL + "/debug/events"
	if kind != "" {
		url += "?kind=" + kind
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET /debug/events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /debug/events: %s: %s", resp.Status, body)
	}
	var out struct {
		Events []journal.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode events: %v", err)
	}
	return out.Events
}

// firstSeq returns the lowest Seq among events (0 when empty).
func firstSeq(events []journal.Event) uint64 {
	var min uint64
	for _, e := range events {
		if min == 0 || e.Seq < min {
			min = e.Seq
		}
	}
	return min
}

// chaosTweak makes a replica node's sweeps killable mid-flight: every
// completed cell is checkpointed (and therefore replicated) before the
// next starts, and evaluation is slowed so a cancel lands while the
// job is genuinely running.
func chaosTweak(c *sweep.Config) {
	c.CheckpointEvery = 1
	c.Eval = func(ctx context.Context, p sweep.CellParams) sweep.Cell {
		time.Sleep(2 * time.Millisecond)
		return sweep.EvalCell(ctx, p)
	}
}

// submitSpec runs spec on node n and waits for the terminal state.
func submitSpec(t *testing.T, n *replicaNode, spec sweep.Spec) string {
	t.Helper()
	j, err := n.mgr.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-j.Done()
	if st := j.Status(); st.State != sweep.StateDone {
		t.Fatalf("sweep finished %s: %+v", st.State, st)
	}
	return j.Status().ID
}

// TestPartitionKillHomeMidSweepZeroLoss is the acceptance test: a
// sweep is submitted through the router, its home backend is killed
// mid-run, and resubmitting the same spec through the router completes
// the job with zero lost cells — the replica owner recovers every
// checkpointed cell from its replica store and computes only the rest.
func TestPartitionKillHomeMidSweepZeroLoss(t *testing.T) {
	defer faultpoint.Reset()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	nodes := make([]*replicaNode, 3)
	urls := make([]string, 3)
	byHost := make(map[string]*replicaNode, 3)
	for i := range nodes {
		nodes[i] = newReplicaNode(t, chaosTweak)
		defer nodes[i].close()
		urls[i] = nodes[i].srv.URL
		host, err := memberName(urls[i])
		if err != nil {
			t.Fatalf("memberName: %v", err)
		}
		byHost[host] = nodes[i]
	}
	for _, n := range nodes {
		n.rep.SetMembers(urls)
	}

	// QuarantineVotes 1: one failed probe marks a dead backend down,
	// standing in for the health loop having noticed the corpse.
	router, err := New(Config{
		Backends:        urls,
		HealthInterval:  -1,
		QuarantineVotes: 1,
		Logger:          quiet,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer router.Close()
	frontend := httptest.NewServer(router.Handler())
	defer frontend.Close()

	// The router pins the whole sweep API to the sweeps ring key, and
	// the replicator places replicas with the same key on the same
	// ring: the backend the router fails over to IS the replica owner.
	router.mu.RLock()
	owners := router.ring.Owners(SweepsRingKey, 2)
	router.mu.RUnlock()
	if len(owners) != 2 {
		t.Fatalf("owner walk = %v, want 2 owners", owners)
	}
	home, replica := byHost[owners[0]], byHost[owners[1]]

	spec := sweep.Spec{N: []int{2, 3, 4, 5, 6}, F: []int{1}, XMax: 8}
	blob, _ := json.Marshal(spec)
	submit := func() service.SweepSubmitResponse {
		t.Helper()
		resp, err := http.Post(frontend.URL+"/v1/sweeps", "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("submit via router: %v", err)
		}
		defer resp.Body.Close()
		var out service.SweepSubmitResponse
		if resp.StatusCode != http.StatusAccepted {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("submit via router: %s: %s", resp.Status, body)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
		return out
	}

	id := submit().Status.ID
	j, ok := home.mgr.Get(id)
	if !ok {
		t.Fatalf("job %s did not land on the ring owner %s", id, owners[0])
	}

	// Kill once at least one cell is checkpointed but (with ~2ms cells)
	// almost surely mid-run. Cancel is the in-process stand-in for
	// process death; the interrupted final checkpoint still replicates,
	// exactly as a real crash's last fsynced checkpoint already did.
	for j.Status().DoneCells == 0 && j.Status().State != sweep.StateDone {
		time.Sleep(time.Millisecond)
	}
	j.Cancel()
	<-j.Done()
	first := j.Status()
	if first.DoneCells == 0 {
		t.Fatal("kill landed before any cell completed; nothing to lose")
	}
	if rcp, err := replica.store.Get(id); err != nil || rcp == nil {
		t.Fatalf("replica owner missing the checkpoint at kill time: %v, %v", rcp, err)
	}

	home.srv.Close()
	router.ProbeAll() // one failed vote quarantines the corpse

	// The resubmission routes to the next owner on the sweeps walk —
	// the replica owner — which recovers the checkpoint from its
	// replica store and finishes the job.
	second := submit()
	if second.Status.ID != id {
		t.Fatalf("resubmit produced job %s, want %s", second.Status.ID, id)
	}
	if _, ok := replica.mgr.Get(id); !ok {
		t.Fatalf("resubmit did not land on the replica owner %s", owners[1])
	}
	if !second.Resumed {
		t.Fatal("replica owner started from scratch; checkpointed cells were lost")
	}

	deadline := time.Now().Add(30 * time.Second)
	var final sweep.Status
	for {
		resp, err := http.Get(frontend.URL + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatalf("status via router: %v", err)
		}
		err = json.NewDecoder(resp.Body).Decode(&final)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode status: %v", err)
		}
		if final.State == sweep.StateDone || final.State == sweep.StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed sweep did not finish: %+v", final)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Zero lost cells: everything checkpointed before the kill was
	// resumed, not recomputed, and the job completed every cell.
	if final.State != sweep.StateDone || final.DoneCells != final.TotalCells || final.CellErrors != 0 {
		t.Fatalf("resumed sweep degraded: %+v", final)
	}
	if final.ResumedCells != first.DoneCells {
		t.Errorf("resumed %d cells, home had checkpointed %d", final.ResumedCells, first.DoneCells)
	}
	if got := replica.mgr.Stats().ReplicasRecovered; got != 1 {
		t.Errorf("ReplicasRecovered = %d, want 1", got)
	}
	if code, _ := routerGet(t, frontend.URL, "/v1/sweeps/"+id+"/result"); code != http.StatusOK {
		t.Errorf("result via router returned %d after recovery", code)
	}
}

// routerGet issues one GET against a base URL and returns status+body.
func routerGet(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// TestPartitionSplitBrainReplicasConverge cuts the replication link in
// both directions, runs a different sweep on each side of the split,
// heals, and requires anti-entropy to leave both owners holding
// byte-identical checkpoints for both jobs with no hints pending.
func TestPartitionSplitBrainReplicasConverge(t *testing.T) {
	defer faultpoint.Reset()
	a, b := newReplicaNode(t), newReplicaNode(t)
	defer a.close()
	defer b.close()
	members := []string{a.srv.URL, b.srv.URL}
	a.rep.SetMembers(members)
	b.rep.SetMembers(members)

	aHost, _ := memberName(a.srv.URL)
	bHost, _ := memberName(b.srv.URL)
	faultpoint.Arm(fpReplicate+"."+aHost, faultpoint.Rule{})
	faultpoint.Arm(fpReplicate+"."+bHost, faultpoint.Rule{})

	id1 := submitSpec(t, a, sweep.Spec{N: []int{3}, F: []int{1}, XMax: 8})
	id2 := submitSpec(t, b, sweep.Spec{N: []int{4}, F: []int{1}, XMax: 8})

	// The split held: neither side saw the other's checkpoints.
	if cp, _ := b.store.Get(id1); cp != nil {
		t.Fatal("split-brain leaked a's checkpoint to b")
	}
	if cp, _ := a.store.Get(id2); cp != nil {
		t.Fatal("split-brain leaked b's checkpoint to a")
	}

	faultpoint.Reset()
	a.rep.AntiEntropy(context.Background())
	b.rep.AntiEntropy(context.Background())

	// Rejoined: every owner holds every job at the home checksum.
	for _, c := range []struct {
		id    string
		home  *replicaNode
		other *replicaNode
	}{{id1, a, b}, {id2, b, a}} {
		want, err := sweep.LoadCheckpoint(c.home.mgr.Dir(), c.id)
		if err != nil || want == nil {
			t.Fatalf("home checkpoint %s: %v, %v", c.id, want, err)
		}
		got, err := c.other.store.Get(c.id)
		if err != nil || got == nil {
			t.Fatalf("replica of %s missing after heal: %v, %v", c.id, got, err)
		}
		if got.Checksum != want.Checksum {
			t.Errorf("job %s: replica checksum %s != home %s", c.id, got.Checksum, want.Checksum)
		}
	}
	if pending := hintsPending(a.rep); pending != 0 {
		t.Errorf("a still has %d hints pending after heal", pending)
	}
	if pending := hintsPending(b.rep); pending != 0 {
		t.Errorf("b still has %d hints pending after heal", pending)
	}

	// The journal tells the same story, on both sides: hints spooled
	// while the split held, then the heal drained them — every replay
	// or anti-entropy repair strictly after the first spool.
	for name, n := range map[string]*replicaNode{"a": a, "b": b} {
		spooled := nodeEvents(t, n, "hint_spool")
		if len(spooled) == 0 {
			t.Errorf("%s journalled no hint_spool events during the split", name)
			continue
		}
		healed := append(nodeEvents(t, n, "hint_replay"), nodeEvents(t, n, "anti_entropy_repair")...)
		if len(healed) == 0 {
			t.Errorf("%s journalled no replay/repair events after the heal", name)
			continue
		}
		spoolStart := firstSeq(spooled)
		for _, e := range healed {
			if e.Seq <= spoolStart {
				t.Errorf("%s: %s event seq %d precedes the first hint_spool seq %d",
					name, e.Kind, e.Seq, spoolStart)
			}
		}
	}
}

// TestPartitionAsymmetricReplication arms the link in one direction
// only: b replicates to a normally while a's pushes to b spool as
// hints, and the heal drains them. One-way reachability — the nastier
// real-network failure — must not wedge either side.
func TestPartitionAsymmetricReplication(t *testing.T) {
	defer faultpoint.Reset()
	a, b := newReplicaNode(t), newReplicaNode(t)
	defer a.close()
	defer b.close()
	members := []string{a.srv.URL, b.srv.URL}
	a.rep.SetMembers(members)
	b.rep.SetMembers(members)

	bHost, _ := memberName(b.srv.URL)
	faultpoint.Arm(fpReplicate+"."+bHost, faultpoint.Rule{})

	id1 := submitSpec(t, a, sweep.Spec{N: []int{3}, F: []int{1}, XMax: 8})
	id2 := submitSpec(t, b, sweep.Spec{N: []int{4}, F: []int{1}, XMax: 8})

	// The healthy direction kept working through the partition.
	if cp, err := a.store.Get(id2); err != nil || cp == nil {
		t.Fatalf("b->a replication broke under an a->b partition: %v, %v", cp, err)
	}
	if cp, _ := b.store.Get(id1); cp != nil {
		t.Fatal("a->b push crossed the armed link")
	}
	if journalled(a, journal.HintSpool) == 0 {
		t.Fatalf("a spooled no hints for the unreachable peer (%d pending)", hintsPending(a.rep))
	}

	faultpoint.Reset()
	a.rep.AntiEntropy(context.Background())
	got, err := b.store.Get(id1)
	if err != nil || got == nil {
		t.Fatalf("hint replay did not land after heal: %v, %v", got, err)
	}
	want, _ := sweep.LoadCheckpoint(a.mgr.Dir(), id1)
	if want == nil || got.Checksum != want.Checksum {
		t.Fatal("replayed replica does not match the home checksum")
	}
	if pending := hintsPending(a.rep); pending != 0 {
		t.Errorf("%d hints still pending after replay", pending)
	}

	// Journal sequence on the partitioned side: spool during the
	// one-way cut, replay for the same job after the heal. The healthy
	// side never spooled.
	spooled := nodeEvents(t, a, "hint_spool")
	replayed := nodeEvents(t, a, "hint_replay")
	if len(spooled) == 0 || len(replayed) == 0 {
		t.Fatalf("a's journal missing the handoff story: %d spooled, %d replayed", len(spooled), len(replayed))
	}
	wantDetail := "job " + id1
	var sawSpool, sawReplay bool
	for _, e := range spooled {
		if e.Detail == wantDetail {
			sawSpool = true
		}
	}
	for _, e := range replayed {
		if e.Detail == wantDetail {
			sawReplay = true
			if e.Seq <= firstSeq(spooled) {
				t.Errorf("replay seq %d not after first spool seq %d", e.Seq, firstSeq(spooled))
			}
		}
	}
	if !sawSpool || !sawReplay {
		t.Errorf("journal does not name job %s in both spool and replay: spool=%v replay=%v",
			id1, sawSpool, sawReplay)
	}
	if got := nodeEvents(t, b, "hint_spool"); len(got) != 0 {
		t.Errorf("healthy side journalled %d hint_spool events", len(got))
	}
}

// TestPartitionRollingByteIdentity quarantines each backend in turn
// and drives the full query mix through the router every time: a
// degraded fleet must answer byte for byte what a healthy single
// process answers, for every query, at every stage of the roll.
func TestPartitionRollingByteIdentity(t *testing.T) {
	defer faultpoint.Reset()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	single := service.New(service.Config{Logger: quiet})
	defer single.Close()
	ref := httptest.NewServer(single.Handler())
	defer ref.Close()

	f := newFleet(t, 3, Config{})
	queries := queryMix()
	reference := make(map[string][]byte, len(queries))
	for _, q := range queries {
		resp, err := http.Get(ref.URL + q)
		if err != nil {
			t.Fatalf("reference GET %s: %v", q, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference GET %s: %s", q, resp.Status)
		}
		reference[q] = body
	}

	for i := range f.backends {
		name := f.backendName(i)
		f.router.mu.RLock()
		b := f.router.backends[name]
		f.router.mu.RUnlock()
		b.down.Store(true)
		faultpoint.Arm(fpForward+"."+name, faultpoint.Rule{})

		for _, q := range queries {
			code, got := f.get(t, q)
			if code != http.StatusOK {
				t.Fatalf("backend %d down: GET %s returned %d", i, q, code)
			}
			if !bytes.Equal(got, reference[q]) {
				t.Fatalf("backend %d down: GET %s differs from single-process\nrouter: %s\ndirect: %s",
					i, q, got, reference[q])
			}
		}

		faultpoint.Reset()
		b.down.Store(false)
	}
}
