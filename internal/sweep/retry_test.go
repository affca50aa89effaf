package sweep

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"linesearch/internal/faultpoint"
)

// transientErr is a retryable failure for tests, via the Transient()
// contract the retry layer classifies on.
type transientErr struct{ msg string }

func (e transientErr) Error() string   { return e.msg }
func (e transientErr) Transient() bool { return true }

// newRetryManager builds a fast-backoff manager for retry tests.
func newRetryManager(dir string, eval EvalFunc) *Manager {
	m := NewManager(Config{Dir: dir, Workers: 2, CheckpointEvery: 1, Logger: quiet(), Eval: eval})
	m.retry = retryPolicy{maxAttempts: 3, baseDelay: time.Millisecond, maxDelay: 4 * time.Millisecond}
	return m
}

// flakyEval fails each cell transiently failuresPerCell times before
// letting the real evaluator run.
type flakyEval struct {
	mu              sync.Mutex
	failuresPerCell int
	failures        map[int]int
}

func (e *flakyEval) eval(ctx context.Context, p CellParams) Cell {
	e.mu.Lock()
	if e.failures == nil {
		e.failures = make(map[int]int)
	}
	fail := e.failures[p.Index] < e.failuresPerCell
	if fail {
		e.failures[p.Index]++
	}
	e.mu.Unlock()
	if fail {
		return failedCell(p, transientErr{"injected flake"})
	}
	return EvalCell(ctx, p)
}

func TestRetryRecoversTransientFailures(t *testing.T) {
	// Every cell fails twice before succeeding; with maxAttempts 3 the
	// job must complete with every cell on its third attempt.
	fe := &flakyEval{failuresPerCell: 2}
	m := newRetryManager(t.TempDir(), fe.eval)
	defer m.Close()
	j, err := m.Submit(Spec{N: []int{3, 5}, F: []int{1}, XMax: 20, GridPoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateDone {
		t.Fatalf("state %s, error %q", st.State, st.Error)
	}
	if st.CellErrors != 0 || st.QuarantinedCells != 0 {
		t.Errorf("errors=%d quarantined=%d, want clean", st.CellErrors, st.QuarantinedCells)
	}
	for _, c := range j.CompletedCells() {
		if c.Attempts != 3 {
			t.Errorf("cell %d took %d attempts, want 3", c.Index, c.Attempts)
		}
	}
	if got := m.Stats().CellRetries; got != int64(2*st.TotalCells) {
		t.Errorf("CellRetries = %d, want %d", got, 2*st.TotalCells)
	}
	if st.CellRetries != 2*st.TotalCells {
		t.Errorf("status CellRetries = %d, want %d", st.CellRetries, 2*st.TotalCells)
	}
}

func TestPermanentErrorsAreNotRetried(t *testing.T) {
	var calls sync.Map
	eval := func(ctx context.Context, p CellParams) Cell {
		n, _ := calls.LoadOrStore(p.Index, new(int))
		*(n.(*int))++
		return failedCell(p, errors.New("infeasible: permanently out of regime"))
	}
	m := newRetryManager(t.TempDir(), eval)
	defer m.Close()
	j, err := m.Submit(Spec{N: []int{3}, F: []int{1}, XMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	// Permanent per-cell failures are data: the job still completes.
	if st.State != StateDone {
		t.Fatalf("state %s, error %q", st.State, st.Error)
	}
	if st.CellErrors != 1 || st.QuarantinedCells != 0 {
		t.Errorf("errors=%d quarantined=%d", st.CellErrors, st.QuarantinedCells)
	}
	calls.Range(func(_, v any) bool {
		if *(v.(*int)) != 1 {
			t.Errorf("permanent failure evaluated %d times, want 1", *(v.(*int)))
		}
		return true
	})
	if got := m.Stats().CellRetries; got != 0 {
		t.Errorf("CellRetries = %d, want 0", got)
	}
}

func TestPanicsAreTransientAndRetried(t *testing.T) {
	var once sync.Once
	eval := func(ctx context.Context, p CellParams) Cell {
		panicked := false
		once.Do(func() { panicked = true })
		if panicked {
			panic("one-shot evaluator crash")
		}
		return EvalCell(ctx, p)
	}
	m := newRetryManager(t.TempDir(), eval)
	defer m.Close()
	j, err := m.Submit(Spec{N: []int{3}, F: []int{1}, XMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateDone || st.CellErrors != 0 {
		t.Fatalf("state %s, errors %d", st.State, st.CellErrors)
	}
	retried := false
	for _, c := range j.CompletedCells() {
		if c.Attempts == 2 {
			retried = true
		}
	}
	if !retried {
		t.Error("no cell recorded a retried panic")
	}
}

// TestQuarantineFailsJobAndResumeRetries is the quarantine contract:
// a cell that exhausts its retry budget fails the whole job loudly,
// the checkpoint keeps the healthy cells, and a resumed run (with the
// infrastructure healed) retries only the quarantined cell and
// completes.
func TestQuarantineFailsJobAndResumeRetries(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{N: []int{3, 5}, F: []int{1}, XMax: 20, GridPoints: 8}
	var broken sync.Map // cell index -> eval count while broken
	evalBroken := func(ctx context.Context, p CellParams) Cell {
		if p.Index == 0 {
			n, _ := broken.LoadOrStore(p.Index, new(int))
			*(n.(*int))++
			return failedCell(p, transientErr{"cell 0 infrastructure down"})
		}
		return EvalCell(ctx, p)
	}
	m1 := newRetryManager(dir, evalBroken)
	j1, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitJob(t, j1)
	m1.Close()
	if st1.State != StateFailed {
		t.Fatalf("state %s, want failed (error %q)", st1.State, st1.Error)
	}
	if !strings.Contains(st1.Error, "quarantined") {
		t.Errorf("job error %q does not mention quarantine", st1.Error)
	}
	if st1.QuarantinedCells != 1 {
		t.Errorf("quarantined = %d, want 1", st1.QuarantinedCells)
	}
	if n, ok := broken.Load(0); !ok || *(n.(*int)) != 3 {
		t.Errorf("broken cell evaluated %v times, want maxAttempts=3", n)
	}
	if got := m1.Stats().CellsQuarantined; got != 1 {
		t.Errorf("CellsQuarantined = %d, want 1", got)
	}

	// The checkpoint survived the failure, is checksum-valid, and
	// carries the quarantined cell.
	cp, err := readCheckpoint(dir, j1.id, spec0(t, spec).Hash())
	if err != nil || cp == nil {
		t.Fatalf("checkpoint after failed job: %v, %v", cp, err)
	}
	quarantined := 0
	for _, c := range cp.Cells {
		if c.Quarantined {
			quarantined++
		}
	}
	if quarantined != 1 {
		t.Fatalf("checkpoint has %d quarantined cells, want 1", quarantined)
	}

	// Healed infrastructure: resume retries only the quarantined cell.
	var second countingEval
	m2 := newRetryManager(dir, second.eval)
	defer m2.Close()
	j2, err := m2.Submit(spec0(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitJob(t, j2)
	if st2.State != StateDone {
		t.Fatalf("resumed state %s, error %q", st2.State, st2.Error)
	}
	if got := second.indices(); len(got) != 1 || got[0] != 1 {
		t.Errorf("resume recomputed cells %v, want only cell 0 once", got)
	}
	if st2.ResumedCells != st2.TotalCells-1 {
		t.Errorf("resumed %d of %d cells", st2.ResumedCells, st2.TotalCells)
	}
}

// spec0 returns a validated copy of spec (Submit mutates its argument
// while normalising, so tests reuse a fresh copy per call).
func spec0(t *testing.T, s Spec) Spec {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCancellationIsNotRetriedOrRecorded: cells failing because the
// job is shutting down are neither retried nor persisted as results.
func TestCancellationIsNotRetriedOrRecorded(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	var calls sync.Map
	eval := func(ctx context.Context, p CellParams) Cell {
		n, _ := calls.LoadOrStore(p.Index, new(int))
		*(n.(*int))++
		once.Do(func() { close(started) })
		<-ctx.Done()
		return failedCell(p, ctx.Err())
	}
	m := newRetryManager(t.TempDir(), eval)
	defer m.Close()
	j, err := m.Submit(Spec{N: []int{3, 5, 7}, F: []int{1, 2}, XMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j.Cancel()
	st := waitJob(t, j)
	if st.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", st.State)
	}
	if st.DoneCells != 0 {
		t.Errorf("cancelled cells were recorded as done: %d", st.DoneCells)
	}
	calls.Range(func(k, v any) bool {
		if *(v.(*int)) != 1 {
			t.Errorf("cancelled cell %v evaluated %d times", k, *(v.(*int)))
		}
		return true
	})
}

// TestEvalCellFaultPoint: the production evaluator's fault point
// injects transparently retryable errors end to end.
func TestEvalCellFaultPoint(t *testing.T) {
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	// Exactly the first two evaluations fail; retries then drain clean.
	faultpoint.Arm("sweep.eval", faultpoint.Rule{Times: 2})
	m := NewManager(Config{Dir: t.TempDir(), Workers: 1, Logger: quiet()})
	m.retry = retryPolicy{maxAttempts: 3, baseDelay: time.Millisecond, maxDelay: 2 * time.Millisecond}
	defer m.Close()
	j, err := m.Submit(Spec{N: []int{3}, F: []int{1}, XMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateDone || st.CellErrors != 0 {
		t.Fatalf("state %s errors %d (error %q)", st.State, st.CellErrors, st.Error)
	}
	if st.CellRetries == 0 {
		t.Error("injected faults caused no retries")
	}
}

func TestBackoffCappedAndJittered(t *testing.T) {
	m := NewManager(Config{Dir: t.TempDir(), Logger: quiet()})
	m.retry.baseDelay, m.retry.maxDelay = 10*time.Millisecond, 40*time.Millisecond
	defer m.Close()
	for attempt := 1; attempt <= 10; attempt++ {
		// Expected window: full backoff in [base*2^(a-1)/2, base*2^(a-1)],
		// capped at the max delay.
		full := 10 * time.Millisecond << (attempt - 1)
		if full > 40*time.Millisecond || full <= 0 {
			full = 40 * time.Millisecond
		}
		for i := 0; i < 20; i++ {
			d := m.backoff(attempt)
			if d < full/2 || d > full {
				t.Fatalf("backoff(%d) = %v outside [%v, %v]", attempt, d, full/2, full)
			}
		}
	}
}
