package sweep

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"linesearch/internal/trace"
)

// State is a job's lifecycle position.
type State string

// Job states. Pending jobs wait for an execution slot; every other
// transition is terminal except Running.
const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one submitted sweep. All exported access goes through Status
// and Result; the manager owns execution.
type Job struct {
	id    string
	spec  Spec
	cells []CellParams

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	state    State
	results  map[int]Cell
	resumed  int
	started  time.Time
	finished time.Time
	err      error
	files    []string
}

// newJob builds a pending job, preloading completed cells from a
// checkpoint when one is given.
func newJob(base context.Context, spec Spec, cp *Checkpoint) *Job {
	ctx, cancel := context.WithCancel(base)
	j := &Job{
		id:      spec.JobID(),
		spec:    spec,
		cells:   spec.Cells(),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   StatePending,
		results: make(map[int]Cell),
	}
	if cp != nil {
		for _, c := range cp.Cells {
			if c.Quarantined {
				// Quarantined cells failed on infrastructure, not
				// data; a resumed run retries them from scratch.
				continue
			}
			if c.Index >= 0 && c.Index < len(j.cells) {
				j.results[c.Index] = c
			}
		}
		j.resumed = len(j.results)
	}
	return j
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cooperative cancellation; in-flight cells finish,
// no new cells start, and a final checkpoint is written.
func (j *Job) Cancel() { j.cancel() }

// Status is a point-in-time progress snapshot, JSON-shaped for the job
// API and the CLI.
type Status struct {
	ID           string   `json:"id"`
	Name         string   `json:"name"`
	State        State    `json:"state"`
	Spec         Spec     `json:"spec"`
	Strategies   []string `json:"strategies"`
	TotalCells   int      `json:"total_cells"`
	DoneCells    int      `json:"done_cells"`
	ResumedCells int      `json:"resumed_cells"`
	CellErrors   int      `json:"cell_errors"`
	// QuarantinedCells counts cells that exhausted their transient-
	// failure retry budget; any nonzero count fails the job.
	QuarantinedCells int `json:"quarantined_cells,omitempty"`
	// CellRetries sums the extra evaluation attempts the job's cells
	// needed beyond their first.
	CellRetries int        `json:"cell_retries,omitempty"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// ElapsedSeconds is the wall-clock run time so far (or total when
	// finished), excluding the pending wait.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// ETASeconds extrapolates the remaining run time from the cells
	// computed this run; absent until the first cell lands.
	ETASeconds *float64 `json:"eta_seconds,omitempty"`
	// Error is the job-level failure message (per-cell errors are
	// counted, not fatal).
	Error string `json:"error,omitempty"`
	// Files lists the datasets written for a done job.
	Files []string `json:"files,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:           j.id,
		Name:         j.spec.Name,
		State:        j.state,
		Spec:         j.spec,
		Strategies:   j.spec.StrategyAxis(),
		TotalCells:   len(j.cells),
		DoneCells:    len(j.results),
		ResumedCells: j.resumed,
		Files:        append([]string(nil), j.files...),
	}
	for _, c := range j.results {
		if !c.OK() {
			st.CellErrors++
		}
		if c.Quarantined {
			st.QuarantinedCells++
		}
		if c.Attempts > 1 {
			st.CellRetries += c.Attempts - 1
		}
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
		end := time.Now()
		if !j.finished.IsZero() {
			end = j.finished
			t2 := j.finished
			st.FinishedAt = &t2
		}
		st.ElapsedSeconds = end.Sub(j.started).Seconds()
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == StateRunning {
		computed := len(j.results) - j.resumed
		remaining := len(j.cells) - len(j.results)
		if computed > 0 && remaining > 0 {
			eta := st.ElapsedSeconds / float64(computed) * float64(remaining)
			st.ETASeconds = &eta
		}
	}
	return st
}

// CompletedCells returns the completed cells sorted by index.
func (j *Job) CompletedCells() []Cell {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sortedCellsLocked()
}

// sortedCellsLocked collects j.results in index order; callers hold j.mu.
func (j *Job) sortedCellsLocked() []Cell {
	out := make([]Cell, 0, len(j.results))
	for _, c := range j.cells {
		if cell, ok := j.results[c.Index]; ok {
			out = append(out, cell)
		}
	}
	return out
}

// resultColumns is the dataset schema, documented in data/README.md.
// strategy_id indexes the Status.Strategies axis; undefined cells
// (unknown closed form, no cone slope) are NaN, which the JSON writer
// exports as null.
var resultColumns = []string{
	"n", "f", "strategy_id", "beta",
	"empirical_cr", "analytic_cr", "abs_error",
	"arg_x", "candidates",
}

// Dataset exports the job's successful cells as a columnar dataset in
// cell-index order. Specs with a fault-model axis append model_id
// (indexing Spec.FaultModels) and detection_rank columns; specs with a
// stochastic dimension (a p or speeds axis, or a pfaulty fault model)
// append p, speed_id, expected_ratio and expected_arg_x columns.
// Crash-only datasets keep the original schema byte-for-byte.
func (j *Job) Dataset() (*trace.Dataset, error) {
	j.mu.Lock()
	cells := j.sortedCellsLocked()
	name := j.spec.Name
	modelAxis := len(j.spec.FaultModels) > 0
	stochastic := len(j.spec.P) > 0 || len(j.spec.Speeds) > 0
	for _, m := range j.spec.FaultModels {
		if m == "pfaulty" || strings.HasPrefix(m, "pfaulty:") {
			stochastic = true
		}
	}
	j.mu.Unlock()

	columns := resultColumns
	if modelAxis || stochastic {
		columns = append([]string{}, resultColumns...)
	}
	if modelAxis {
		columns = append(columns, "model_id", "detection_rank")
	}
	if stochastic {
		columns = append(columns, "p", "speed_id", "expected_ratio", "expected_arg_x")
	}
	d := &trace.Dataset{Name: name, Columns: columns}
	orNaN := func(p *float64) float64 {
		if p == nil {
			return math.NaN()
		}
		return *p
	}
	for _, c := range cells {
		if !c.OK() {
			continue
		}
		row := []float64{
			float64(c.N), float64(c.F), float64(c.StrategyID), orNaN(c.Beta),
			orNaN(c.EmpiricalCR), orNaN(c.AnalyticCR), orNaN(c.AbsError),
			c.ArgX, float64(c.Candidates),
		}
		if modelAxis {
			row = append(row, float64(c.ModelID), float64(c.DetectionRank))
		}
		if stochastic {
			row = append(row, orNaN(c.P), float64(c.SpeedID), orNaN(c.ExpectedRatio), c.ExpectedArgX)
		}
		if err := d.AddRow(row...); err != nil {
			return nil, err
		}
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("sweep: job %s dataset: %w", j.id, err)
	}
	return d, nil
}

// checkpoint snapshots the job for persistence.
func (j *Job) checkpoint() Checkpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Checkpoint{
		ID:       j.id,
		SpecHash: j.spec.Hash(),
		Spec:     j.spec,
		Cells:    j.sortedCellsLocked(),
	}
}

// quarantined counts the job's quarantined cells.
func (j *Job) quarantined() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, c := range j.results {
		if c.Quarantined {
			n++
		}
	}
	return n
}

// record stores one completed cell.
func (j *Job) record(c Cell) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.results[c.Index] = c
}

// pendingCells returns the cells not yet completed (the resume set
// complement), in canonical order.
func (j *Job) pendingCells() []CellParams {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]CellParams, 0, len(j.cells)-len(j.results))
	for _, c := range j.cells {
		if _, ok := j.results[c.Index]; !ok {
			out = append(out, c)
		}
	}
	return out
}

// setRunning marks the run start.
func (j *Job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.started = time.Now()
}

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(state State, err error, files []string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.err = err
	j.files = append([]string(nil), files...)
	if j.started.IsZero() {
		j.started = time.Now()
	}
	j.finished = time.Now()
	j.mu.Unlock()
	j.cancel() // release the context either way
	close(j.done)
}
