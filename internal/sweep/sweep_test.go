package sweep

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// quiet discards job lifecycle logs in tests.
func quiet() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// waitJob fails the test if the job does not reach a terminal state.
func waitJob(t *testing.T, j *Job) Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish: %+v", j.id, j.Status())
	}
	return j.Status()
}

func TestSpecDefaultsAndValidation(t *testing.T) {
	s := Spec{N: []int{3}, F: []int{1}}
	if err := s.Validate(); err != nil {
		t.Fatalf("minimal spec rejected: %v", err)
	}
	if s.Name != "sweep" || s.XMin != 1 || s.XMax != 100 || s.GridPoints != 64 || s.Eps != 1e-12 {
		t.Errorf("defaults not applied: %+v", s)
	}
	if got := s.StrategyAxis(); len(got) != 1 || got[0] != StrategyAuto {
		t.Errorf("default strategy axis = %v", got)
	}

	bad := []Spec{
		{F: []int{1}},               // no n
		{N: []int{3}},               // no f
		{N: []int{0}, F: []int{1}},  // n < 1
		{N: []int{3}, F: []int{-1}}, // f < 0
		{N: []int{3}, F: []int{1}, Strategies: []string{"nope"}},
		{N: []int{3}, F: []int{1}, Betas: []float64{1}},
		{N: []int{3}, F: []int{1}, Betas: []float64{math.NaN()}},
		{N: []int{3}, F: []int{1}, XMin: -1},
		{N: []int{3}, F: []int{1}, XMin: 10, XMax: 5},
		{N: []int{3}, F: []int{1}, GridPoints: 1},
		{N: []int{3}, F: []int{1}, Eps: 2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestSpecCellsEnumeration(t *testing.T) {
	s := Spec{
		N:          []int{3, 5},
		F:          []int{1, 2},
		Strategies: []string{"proportional"},
		Betas:      []float64{2.5},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	axis := s.StrategyAxis()
	want := []string{"proportional", "cone:2.5"}
	if fmt.Sprint(axis) != fmt.Sprint(want) {
		t.Fatalf("axis = %v, want %v", axis, want)
	}
	cells := s.Cells()
	if len(cells) != s.CellCount() || len(cells) != 8 {
		t.Fatalf("got %d cells, CellCount %d, want 8", len(cells), s.CellCount())
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
		if c.Strategy != axis[c.StrategyID] {
			t.Errorf("cell %d: strategy %q but id %d -> %q", i, c.Strategy, c.StrategyID, axis[c.StrategyID])
		}
	}
	// Strategy-major order: the first |N|*|F| cells are the first strategy.
	if cells[0].Strategy != "proportional" || cells[4].Strategy != "cone:2.5" {
		t.Errorf("unexpected enumeration order: %+v", cells)
	}
}

func TestSpecHashStableAndSensitive(t *testing.T) {
	a := Spec{N: []int{3}, F: []int{1}}
	b := Spec{N: []int{3}, F: []int{1}}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() || a.JobID() != b.JobID() {
		t.Error("identical specs hash differently")
	}
	c := Spec{N: []int{3}, F: []int{2}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Hash() == c.Hash() {
		t.Error("different specs share a hash")
	}
	if !strings.HasPrefix(a.JobID(), "sw-") || len(a.JobID()) != 15 {
		t.Errorf("unexpected job id %q", a.JobID())
	}
}

// TestSweepAgreesWithClosedForm runs a real grid end to end and asserts
// the per-cell empirical CR matches the closed form to 1e-9 wherever
// both are defined — the acceptance bar for the whole subsystem.
func TestSweepAgreesWithClosedForm(t *testing.T) {
	m := NewManager(Config{Dir: t.TempDir(), Logger: quiet()})
	defer m.Close()
	j, err := m.Submit(Spec{
		Name:       "agreement",
		N:          []int{2, 3, 4, 5},
		F:          []int{1, 2, 3},
		Strategies: []string{StrategyAuto, "doubling"},
		Betas:      []float64{2.5},
		XMax:       200,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateDone {
		t.Fatalf("state %s, error %q", st.State, st.Error)
	}
	if st.DoneCells != st.TotalCells || st.TotalCells != 36 {
		t.Fatalf("done %d / total %d, want 36/36", st.DoneCells, st.TotalCells)
	}
	checked := 0
	for _, c := range j.CompletedCells() {
		if !c.OK() {
			continue
		}
		if c.EmpiricalCR == nil || c.AnalyticCR == nil {
			continue
		}
		if *c.AbsError > 1e-9 {
			t.Errorf("cell %d (%s n=%d f=%d): empirical %v vs analytic %v (|err|=%g)",
				c.Index, c.Strategy, c.N, c.F, *c.EmpiricalCR, *c.AnalyticCR, *c.AbsError)
		}
		checked++
	}
	if checked < 20 {
		t.Errorf("only %d cells had both empirical and analytic CR", checked)
	}
}

// TestSweepCollectsCellErrors: infeasible cells (hopeless regime,
// strategy out of regime) are recorded as per-cell errors, and the job
// still completes.
func TestSweepCollectsCellErrors(t *testing.T) {
	m := NewManager(Config{Dir: t.TempDir(), Logger: quiet()})
	defer m.Close()
	j, err := m.Submit(Spec{
		N:          []int{2},
		F:          []int{2, 1},                        // n=f=2 is hopeless; (2,1) is fine
		Strategies: []string{StrategyAuto, "twogroup"}, // twogroup invalid for (2,1)
		XMax:       50,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateDone {
		t.Fatalf("state %s, error %q", st.State, st.Error)
	}
	if st.CellErrors != 3 { // auto(2,2), twogroup(2,2), twogroup(2,1)
		t.Errorf("cell errors = %d, want 3; cells: %+v", st.CellErrors, j.CompletedCells())
	}
	for _, c := range j.CompletedCells() {
		if c.N == 2 && c.F == 1 && c.Strategy == StrategyAuto {
			if !c.OK() {
				t.Errorf("feasible cell failed: %q", c.Err)
			}
			if c.Resolved != "proportional" {
				t.Errorf("auto(2,1) resolved to %q", c.Resolved)
			}
		}
	}
	d, err := j.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != st.TotalCells-st.CellErrors {
		t.Errorf("dataset has %d rows, want %d", len(d.Rows), st.TotalCells-st.CellErrors)
	}
}

// TestSubmitIdempotent: the same spec maps to the same job.
func TestSubmitIdempotent(t *testing.T) {
	m := NewManager(Config{Dir: t.TempDir(), Logger: quiet()})
	defer m.Close()
	spec := Spec{N: []int{3}, F: []int{1}, XMax: 20}
	j1, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(Spec{N: []int{3}, F: []int{1}, XMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Error("resubmitting an identical spec created a second job")
	}
	if got := len(m.List()); got != 1 {
		t.Errorf("List has %d jobs, want 1", got)
	}
	waitJob(t, j1)
}

func TestSubmitRejectsOversizedGrid(t *testing.T) {
	m := NewManager(Config{Dir: t.TempDir(), Logger: quiet()})
	m.maxCells = 10
	defer m.Close()
	_, err := m.Submit(Spec{N: []int{1, 2, 3, 4}, F: []int{0, 1, 2}}) // 12 cells
	if err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
		t.Fatalf("oversized grid accepted: %v", err)
	}
}

// TestCancelMidRun: cancellation stops dispatch, the job lands in the
// cancelled state with a checkpoint on disk, and progress never exceeds
// the total.
func TestCancelMidRun(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	eval := func(ctx context.Context, p CellParams) Cell {
		once.Do(func() { close(started) })
		select {
		case <-release:
		case <-ctx.Done():
		}
		return EvalCell(context.Background(), p)
	}
	m := NewManager(Config{Dir: t.TempDir(), Workers: 2, CheckpointEvery: 1,
		Logger: quiet(), Eval: eval})
	defer m.Close()
	j, err := m.Submit(Spec{N: []int{3, 5, 7, 9}, F: []int{1, 2, 3, 4}, XMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !m.Cancel(j.id) {
		t.Fatal("Cancel did not find the job")
	}
	close(release)
	st := waitJob(t, j)
	if st.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", st.State)
	}
	if st.DoneCells >= st.TotalCells {
		t.Errorf("cancelled job completed all %d cells", st.TotalCells)
	}
	if _, err := readCheckpoint(m.Dir(), j.id, j.spec.Hash()); err != nil {
		t.Errorf("no checkpoint after cancel: %v", err)
	}
	if !m.Cancel(j.id) {
		t.Error("second Cancel reports unknown job")
	}
	if m.Cancel("sw-missing") {
		t.Error("Cancel invented a job")
	}
}

// TestStatusProgressMonotonic polls a running job and asserts DoneCells
// never decreases and ends at TotalCells.
func TestStatusProgressMonotonic(t *testing.T) {
	gate := make(chan struct{}, 1)
	eval := func(ctx context.Context, p CellParams) Cell {
		gate <- struct{}{} // throttle so the poller observes intermediate states
		defer func() { <-gate }()
		return EvalCell(ctx, p)
	}
	m := NewManager(Config{Dir: t.TempDir(), Workers: 1, Logger: quiet(), Eval: eval})
	defer m.Close()
	j, err := m.Submit(Spec{N: []int{3, 5}, F: []int{1, 2}, XMax: 20, GridPoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for {
		st := j.Status()
		if st.DoneCells < prev {
			t.Fatalf("progress went backwards: %d -> %d", prev, st.DoneCells)
		}
		if st.DoneCells > st.TotalCells {
			t.Fatalf("progress overshot: %d > %d", st.DoneCells, st.TotalCells)
		}
		prev = st.DoneCells
		if st.State.Terminal() {
			if st.DoneCells != st.TotalCells {
				t.Fatalf("terminal with %d/%d cells", st.DoneCells, st.TotalCells)
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSlowCellDoesNotStrandOthers: with two workers, cell 0 waits
// until every other cell has been evaluated. Cells are handed out on
// demand, so the second worker evaluates them all and the job still
// finishes done; a static split of the cell range would strand the
// rest of cell 0's share behind it.
func TestSlowCellDoesNotStrandOthers(t *testing.T) {
	spec := Spec{N: []int{3, 5, 7}, F: []int{1, 2}, XMax: 20, GridPoints: 8}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	var others sync.WaitGroup
	others.Add(spec.CellCount() - 1)
	allDone := make(chan struct{})
	go func() { others.Wait(); close(allDone) }()
	eval := func(ctx context.Context, p CellParams) Cell {
		if p.Index != 0 {
			defer others.Done()
			return EvalCell(ctx, p)
		}
		select {
		case <-allDone:
		case <-time.After(10 * time.Second):
			t.Errorf("cell 0 waited 10s for the other cells: cells are not handed out on demand")
		}
		return EvalCell(ctx, p)
	}
	m := NewManager(Config{Dir: t.TempDir(), Workers: 2, Logger: quiet(), Eval: eval})
	defer m.Close()
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateDone || st.DoneCells != st.TotalCells {
		t.Fatalf("state %s with %d/%d cells, error %q", st.State, st.DoneCells, st.TotalCells, st.Error)
	}
}

func TestManagerCloseCancelsJobs(t *testing.T) {
	slow := func(ctx context.Context, p CellParams) Cell {
		select {
		case <-ctx.Done():
			return failedCell(p, ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
		return EvalCell(ctx, p)
	}
	m := NewManager(Config{Dir: t.TempDir(), Workers: 1, Logger: quiet(), Eval: slow})
	j, err := m.Submit(Spec{N: []int{3, 5, 7}, F: []int{1, 2, 3}, XMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	st := j.Status()
	if !st.State.Terminal() {
		t.Fatalf("job still %s after Close", st.State)
	}
	if _, err := m.Submit(Spec{N: []int{3}, F: []int{1}}); err == nil {
		t.Error("Submit accepted after Close")
	}
}

func TestParseLists(t *testing.T) {
	ns, err := ParseInts(" 3, 5,7 ")
	if err != nil || fmt.Sprint(ns) != "[3 5 7]" {
		t.Errorf("ParseInts = %v, %v", ns, err)
	}
	if _, err := ParseInts("3,x"); err == nil {
		t.Error("ParseInts accepted garbage")
	}
	fs, err := ParseFloats("2.5, 3")
	if err != nil || fmt.Sprint(fs) != "[2.5 3]" {
		t.Errorf("ParseFloats = %v, %v", fs, err)
	}
	if _, err := ParseFloats("2.5,?"); err == nil {
		t.Error("ParseFloats accepted garbage")
	}
	if vs, err := ParseInts("  "); err != nil || vs != nil {
		t.Errorf("blank list = %v, %v", vs, err)
	}
}

// Cancel requests cancellation of a job.
func (m *Manager) Cancel(id string) bool {
	j, ok := m.Get(id)
	if !ok {
		return false
	}
	j.Cancel()
	return true
}
