package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// stampedCheckpoint builds a verified checkpoint the way the home
// writer does: write it to a scratch dir so it carries a real version,
// timestamp and checksum.
func stampedCheckpoint(t testing.TB, id string, cells int) Checkpoint {
	t.Helper()
	spec := Spec{N: []int{3}, F: []int{1}}
	if err := spec.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	cp := Checkpoint{ID: id, SpecHash: spec.Hash(), Spec: spec}
	for i := 0; i < cells; i++ {
		cp.Cells = append(cp.Cells, Cell{Index: i, N: 3, F: 1, Strategy: "auto"})
	}
	stamped, err := writeCheckpoint(t.TempDir(), cp)
	if err != nil {
		t.Fatalf("writeCheckpoint: %v", err)
	}
	return stamped
}

func TestReplicaStorePutGet(t *testing.T) {
	s := NewReplicaStore(t.TempDir(), quiet())
	cp := stampedCheckpoint(t, "job-a", 2)
	if err := s.Put(cp); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get("job-a")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got == nil || got.Checksum != cp.Checksum {
		t.Fatalf("Get returned %+v, want checksum %s", got, cp.Checksum)
	}
	if missing, err := s.Get("nope"); err != nil || missing != nil {
		t.Fatalf("Get(missing) = %v, %v; want nil, nil", missing, err)
	}
	st := s.Stats()
	if st.Held != 1 || st.Accepted != 1 {
		t.Fatalf("stats after put: %+v", st)
	}
}

// TestReplicaStorePreservesChecksum pins the invariant anti-entropy
// depends on: the stored replica file decodes to the sender's exact
// checksum — the store never re-stamps.
func TestReplicaStorePreservesChecksum(t *testing.T) {
	dir := t.TempDir()
	s := NewReplicaStore(dir, quiet())
	cp := stampedCheckpoint(t, "job-a", 3)
	if err := s.Put(cp); err != nil {
		t.Fatalf("Put: %v", err)
	}
	reopened := NewReplicaStore(dir, quiet())
	info, ok := reopened.Digest()["job-a"]
	if !ok || info.Checksum != cp.Checksum {
		t.Fatalf("reopened digest = %+v, want checksum %s", info, cp.Checksum)
	}
}

func TestReplicaStoreStaleAndNewer(t *testing.T) {
	s := NewReplicaStore(t.TempDir(), quiet())
	newer := stampedCheckpoint(t, "job-a", 3)
	older := stampedCheckpoint(t, "job-a", 1)
	if err := s.Put(newer); err != nil {
		t.Fatalf("Put(newer): %v", err)
	}
	// Same checksum again: stale, not an error.
	if err := s.Put(newer); err != nil {
		t.Fatalf("Put(duplicate): %v", err)
	}
	// Fewer cells: stale, held copy keeps winning.
	if err := s.Put(older); err != nil {
		t.Fatalf("Put(older): %v", err)
	}
	st := s.Stats()
	if st.Accepted != 1 || st.Stale != 2 {
		t.Fatalf("stats = %+v, want 1 accepted / 2 stale", st)
	}
	got, err := s.Get("job-a")
	if err != nil || got == nil || len(got.Cells) != 3 {
		t.Fatalf("held copy = %+v, %v; want the 3-cell checkpoint", got, err)
	}
}

func TestReplicaStoreRejectsCorrupt(t *testing.T) {
	s := NewReplicaStore(t.TempDir(), quiet())
	cp := stampedCheckpoint(t, "job-a", 2)
	cp.Cells[0].N = 99 // breaks the checksum
	if err := s.Put(cp); err == nil {
		t.Fatal("Put accepted a checkpoint that fails its checksum")
	}
	var blank Checkpoint
	if err := s.Put(blank); err == nil {
		t.Fatal("Put accepted a zero checkpoint")
	}
	if st := s.Stats(); st.Rejected != 2 || st.Held != 0 {
		t.Fatalf("stats = %+v, want 2 rejected / 0 held", st)
	}
}

// TestManagerOnCheckpoint pins the replication hook contract: the
// callback fires with the stamped on-disk content (valid checksum,
// current version) for the terminal checkpoint of a finished job.
// wireJobID is the job-id rule the service's replica endpoints enforce
// before a pushed checkpoint reaches the store.
var wireJobID = regexp.MustCompile(`^[A-Za-z0-9_-]{1,128}$`)

// FuzzReplicaCheckpoint feeds arbitrary bytes through a replica
// owner's inbound path: decode a pushed checkpoint body, Verify it,
// then Put and Get it in a temp directory. A body that fails Verify
// must be rejected by Put; one that passes must round-trip with its
// checksum intact. A failing body is then re-stamped and retried, so
// the fuzzer reaches the store's write path instead of stopping at
// SHA-256.
func FuzzReplicaCheckpoint(f *testing.F) {
	valid, err := json.Marshal(stampedCheckpoint(f, "job-a", 2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(bytes.Replace(valid, []byte(`"n":3`), []byte(`"n":4`), 1)) // stale checksum
	f.Add([]byte(`{"version":2,"id":"job-b","cells":[{"index":0,"beta":-0,"arg_x":1e308}]}`))
	f.Add([]byte(`{"version":2,"id":"../escape","updated_at":"2024-01-01T00:00:00+05:00"}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var cp Checkpoint
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&cp); err != nil {
			return
		}
		store := NewReplicaStore(t.TempDir(), quiet())
		if cp.Verify() != nil {
			if store.Put(cp) == nil {
				t.Fatal("Put accepted a checkpoint that fails Verify")
			}
			cp.Version = checkpointVersion
			cp.Checksum = cp.checksum()
		}
		if err := store.Put(cp); err != nil {
			if wireJobID.MatchString(cp.ID) {
				t.Fatalf("Put rejected verified checkpoint %q: %v", cp.ID, err)
			}
			return
		}
		got, err := store.Get(cp.ID)
		if err != nil || got == nil {
			t.Fatalf("Get(%q) after Put = %v, %v", cp.ID, got, err)
		}
		if got.Checksum != cp.Checksum {
			t.Fatalf("round trip changed the checksum: %s -> %s", cp.Checksum, got.Checksum)
		}
	})
}

func TestManagerOnCheckpoint(t *testing.T) {
	var mu sync.Mutex
	var got []Checkpoint
	m := NewManager(Config{
		Dir:     t.TempDir(),
		Workers: 1,
		Logger:  quiet(),
		OnCheckpoint: func(cp Checkpoint) {
			mu.Lock()
			got = append(got, cp)
			mu.Unlock()
		},
	})
	defer m.Close()
	j, err := m.Submit(Spec{N: []int{3}, F: []int{1}, XMax: 8})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitJob(t, j)
	if st.State != StateDone {
		t.Fatalf("job finished %s: %+v", st.State, st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("OnCheckpoint never fired")
	}
	last := got[len(got)-1]
	if err := last.Verify(); err != nil {
		t.Fatalf("hook received an unverifiable checkpoint: %v", err)
	}
	if last.ID != j.id || len(last.Cells) != st.TotalCells {
		t.Fatalf("hook checkpoint = id %s, %d cells; want job %s with %d cells",
			last.ID, len(last.Cells), j.id, st.TotalCells)
	}
}

// TestManagerReplicaRecovery kills the home checkpoint and proves a
// resubmit resumes from the replica copy instead of starting cold —
// the f+1 property: any single lost backend loses no completed cell.
func TestManagerReplicaRecovery(t *testing.T) {
	home, replica := t.TempDir(), t.TempDir()
	spec := Spec{N: []int{3}, F: []int{1}, XMax: 8}

	// First life: run the job to completion, replicating checkpoints.
	store := NewReplicaStore(replica, quiet())
	m1 := NewManager(Config{
		Dir:     home,
		Workers: 1,
		Logger:  quiet(),
		OnCheckpoint: func(cp Checkpoint) {
			if err := store.Put(cp); err != nil {
				t.Errorf("replica put: %v", err)
			}
		},
	})
	j, err := m1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	first := waitJob(t, j)
	if first.State != StateDone {
		t.Fatalf("job finished %s: %+v", first.State, first)
	}
	m1.Close()

	// The home disk dies; only the replica survives.
	matches, _ := filepath.Glob(filepath.Join(home, "*.checkpoint.json"))
	if len(matches) == 0 {
		t.Fatal("no home checkpoint to destroy")
	}
	for _, path := range matches {
		os.Remove(path)
	}

	m2 := NewManager(Config{Dir: home, Workers: 1, Logger: quiet(), ReplicaDir: replica})
	defer m2.Close()
	j2, err := m2.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if j2.id != j.id {
		t.Fatalf("resubmit produced a different job id: %s vs %s", j2.id, j.id)
	}
	second := waitJob(t, j2)
	if second.State != StateDone {
		t.Fatalf("recovered job finished %s: %+v", second.State, second)
	}
	if st := m2.Stats(); st.ReplicasRecovered != 1 {
		t.Fatalf("ReplicasRecovered = %d, want 1", st.ReplicasRecovered)
	}
	// Every cell the first life completed must come back as resumed —
	// zero lost cells.
	if second.ResumedCells != first.DoneCells {
		t.Fatalf("recovery resumed %d cells, original completed %d", second.ResumedCells, first.DoneCells)
	}
}
