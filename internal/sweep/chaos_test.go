package sweep

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"linesearch/internal/faultpoint"
)

// chaosSoak enables the randomized-seed soak loop:
//
//	go test -race ./internal/sweep -run TestChaosSoak -chaos.soak=45s
var chaosSoak = flag.Duration("chaos.soak", 0,
	"run randomized chaos schedules for this long (0 skips the soak)")

// chaosSpec is the grid every chaos schedule sweeps: small enough that
// dozens of schedules stay fast, large enough to exercise multiple
// workers, checkpoint flushes and resume. The fault-model axis runs
// every cell under both detection rules, so the chaos dichotomy (exact
// answer or loud failure) covers the Byzantine voting path too.
func chaosSpec() Spec {
	return Spec{N: []int{3, 5, 7}, F: []int{1}, XMax: 20, GridPoints: 8,
		FaultModels: []string{"crash", "byzantine"}}
}

// newChaosManager builds the manager chaos schedules run under: tight
// backoff so retries drain fast, checkpoint after every cell so the
// torn-write fault points get plenty of traffic, and jitter seeded per
// schedule. A nil eval runs the production evaluator.
func newChaosManager(dir string, seed int64, eval EvalFunc) *Manager {
	m := NewManager(Config{Dir: dir, Workers: 2, CheckpointEvery: 1, Logger: quiet(), Eval: eval})
	m.retry = retryPolicy{maxAttempts: 4, baseDelay: time.Millisecond, maxDelay: 4 * time.Millisecond}
	m.rng = rand.New(rand.NewSource(seed))
	return m
}

// chaosReference computes the fault-free answer the chaos runs must
// reproduce bit-for-bit (within 1e-12).
func chaosReference(t *testing.T) map[int]Cell {
	t.Helper()
	faultpoint.Reset()
	m := newChaosManager(t.TempDir(), 1, nil)
	defer m.Close()
	j, err := m.Submit(chaosSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st.State != StateDone || st.CellErrors != 0 {
		t.Fatalf("reference run: state %s, errors %d (%s)", st.State, st.CellErrors, st.Error)
	}
	ref := make(map[int]Cell)
	for _, c := range j.CompletedCells() {
		ref[c.Index] = c
	}
	return ref
}

// floatPtrClose compares optional measurements at 1e-12.
func floatPtrClose(a, b *float64) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || math.Abs(*a-*b) <= 1e-12
}

// assertCellMatchesRef fails unless c reproduces the fault-free cell.
func assertCellMatchesRef(t *testing.T, c Cell, ref map[int]Cell) {
	t.Helper()
	want, ok := ref[c.Index]
	if !ok {
		t.Fatalf("cell %d not in the reference run", c.Index)
	}
	if c.N != want.N || c.F != want.F || c.Strategy != want.Strategy ||
		c.StrategyID != want.StrategyID || c.Resolved != want.Resolved ||
		c.FaultModel != want.FaultModel || c.ModelID != want.ModelID ||
		c.DetectionRank != want.DetectionRank {
		t.Fatalf("cell %d identity drifted: got %+v want %+v", c.Index, c, want)
	}
	if !floatPtrClose(c.EmpiricalCR, want.EmpiricalCR) ||
		!floatPtrClose(c.AnalyticCR, want.AnalyticCR) ||
		!floatPtrClose(c.Beta, want.Beta) ||
		!floatPtrClose(c.AbsError, want.AbsError) {
		t.Fatalf("cell %d measurements drifted beyond 1e-12: got %+v want %+v", c.Index, c, want)
	}
	if math.Abs(c.ArgX-want.ArgX) > 1e-12 || c.Candidates != want.Candidates {
		t.Fatalf("cell %d supremum witness drifted: got %+v want %+v", c.Index, c, want)
	}
}

// armChaosSchedule derives a reproducible fault schedule from seed:
// the evaluator fault point always gets a rule (error, latency or
// panic), and each checkpoint fault point independently gets a
// lower-probability error rule. Checkpoint points never panic — a
// panic there would kill the manager's job goroutine, which is outside
// the contract the retry layer (deliberately) covers.
func armChaosSchedule(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	faultpoint.Seed(seed)
	evalRule := faultpoint.Rule{
		Mode:  faultpoint.Mode(rng.Intn(3)),
		Delay: time.Millisecond,
		P:     0.05 + 0.35*rng.Float64(),
	}
	faultpoint.Arm("sweep.eval", evalRule)
	desc := fmt.Sprintf("eval{%s p=%.2f}", evalRule.Mode, evalRule.P)
	for _, name := range []string{"checkpoint.write", "checkpoint.sync", "checkpoint.rename", "checkpoint.read"} {
		if rng.Intn(2) == 0 {
			continue
		}
		p := 0.05 + 0.15*rng.Float64()
		faultpoint.Arm(name, faultpoint.Rule{P: p})
		desc += fmt.Sprintf(" %s{error p=%.2f}", name, p)
	}
	return desc
}

// runChaosSchedule drives one full sweep job through the seed's fault
// schedule and asserts the resilience dichotomy: the job either
// completes with every cell identical (1e-12) to the fault-free
// reference, or it fails loudly leaving a checksum-valid checkpoint
// whose healthy cells still match the reference.
func runChaosSchedule(t *testing.T, seed int64, ref map[int]Cell) {
	t.Helper()
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	desc := armChaosSchedule(seed)
	t.Logf("schedule %d: %s", seed, desc)

	dir := t.TempDir()
	m := newChaosManager(dir, seed, nil)
	spec := spec0(t, chaosSpec())
	j, err := m.Submit(chaosSpec())
	if err != nil {
		// The only way Submit fails on a fresh directory is the injected
		// checkpoint read fault — and it must say so.
		if !faultpoint.IsInjected(err) {
			t.Fatalf("Submit failed with a non-injected error: %v", err)
		}
		m.Close()
		return
	}
	st := waitJob(t, j)
	m.Close()
	// Disarm before validation so the checkpoint read-back below sees
	// the real file, not another injected fault.
	faultpoint.Reset()

	switch st.State {
	case StateDone:
		if st.CellErrors != 0 || st.QuarantinedCells != 0 {
			t.Fatalf("done job carries errors=%d quarantined=%d", st.CellErrors, st.QuarantinedCells)
		}
		cells := j.CompletedCells()
		if len(cells) != len(ref) {
			t.Fatalf("done job has %d cells, reference has %d", len(cells), len(ref))
		}
		for _, c := range cells {
			assertCellMatchesRef(t, c, ref)
		}
	case StateFailed:
		if st.Error == "" {
			t.Fatal("failed job has no error message")
		}
		// The checkpoint on disk, if any, must be checksum-valid and
		// its healthy cells must match the reference; unhealthy cells
		// must carry their error.
		cp, err := readCheckpoint(dir, j.id, spec.Hash())
		if err != nil {
			t.Fatalf("checkpoint after failed job is not readable: %v", err)
		}
		if cp != nil {
			for _, c := range cp.Cells {
				if c.OK() {
					assertCellMatchesRef(t, c, ref)
				} else if c.Err == "" {
					t.Fatalf("checkpoint cell %d is neither healthy nor error-carrying: %+v", c.Index, c)
				}
			}
		}
	default:
		t.Fatalf("chaos job ended %s (error %q): neither completed nor failed loudly", st.State, st.Error)
	}
}

// TestChaosSchedules drives 24 deterministic fault schedules through
// full sweep jobs. Every seed replays exactly; a failure names its
// seed, so a regression reduces to one deterministic schedule.
func TestChaosSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos schedules are not short-mode tests")
	}
	ref := chaosReference(t)
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosSchedule(t, seed, ref)
		})
	}
}

// TestChaosSoak runs randomized seeds until the -chaos.soak budget is
// spent (CI's chaos job sets it; default runs skip). Seeds are logged,
// so any failure is replayable with TestChaosSchedules machinery.
func TestChaosSoak(t *testing.T) {
	if *chaosSoak <= 0 {
		t.Skip("enable with -chaos.soak=45s")
	}
	ref := chaosReference(t)
	base := time.Now().UnixNano()
	deadline := time.Now().Add(*chaosSoak)
	for i := int64(0); time.Now().Before(deadline); i++ {
		seed := base + i
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosSchedule(t, seed, ref)
		})
	}
}

// TestKillAndResumeTorture cancels a sweep mid-run (the process-death
// analogue the checkpoint layer exists for), restarts a fresh manager
// on the same directory, and requires the resumed job to produce the
// exact fault-free answer without recomputing finished cells.
func TestKillAndResumeTorture(t *testing.T) {
	ref := chaosReference(t)
	faultpoint.Reset()
	dir := t.TempDir()
	spec := spec0(t, chaosSpec())

	// First life: every evaluation is slowed so the cancel lands with
	// the job genuinely mid-flight.
	m1 := newChaosManager(dir, 1, func(ctx context.Context, p CellParams) Cell {
		time.Sleep(2 * time.Millisecond)
		return EvalCell(ctx, p)
	})
	j1, err := m1.Submit(chaosSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Kill once at least one cell has been checkpointed but before the
	// job can finish.
	for j1.Status().DoneCells == 0 && j1.Status().State != StateDone {
		time.Sleep(time.Millisecond)
	}
	j1.Cancel()
	st1 := waitJob(t, j1)
	m1.Close()
	if st1.State == StateFailed {
		t.Fatalf("cancelled run failed: %s", st1.Error)
	}

	// Second life: a fresh manager on the same directory resumes from
	// the checkpoint and finishes clean.
	m2 := newChaosManager(dir, 2, nil)
	defer m2.Close()
	j2, err := m2.Submit(chaosSpec())
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitJob(t, j2)
	if st2.State != StateDone || st2.CellErrors != 0 {
		t.Fatalf("resumed run: state %s, errors %d (%s)", st2.State, st2.CellErrors, st2.Error)
	}
	if st1.DoneCells > 0 && st2.ResumedCells == 0 {
		t.Errorf("resume recomputed everything despite %d checkpointed cells", st1.DoneCells)
	}
	cells := j2.CompletedCells()
	if len(cells) != len(ref) {
		t.Fatalf("resumed job has %d cells, reference has %d", len(cells), len(ref))
	}
	for _, c := range cells {
		assertCellMatchesRef(t, c, ref)
	}
	// The final checkpoint of the finished job reads back checksum-valid.
	if cp, err := readCheckpoint(dir, j2.id, spec.Hash()); err != nil || cp == nil {
		t.Fatalf("final checkpoint: %v, %v", cp, err)
	}
}
