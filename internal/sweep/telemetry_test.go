package sweep

import (
	"testing"

	"linesearch/internal/telemetry"
)

// Every completed sweep records one cell-latency observation per cell,
// and with a tracer configured every cell leaves a "sweep.cell" trace
// with the evaluation stages nested under it.
func TestSweepCellLatencyAndTraces(t *testing.T) {
	tracer := telemetry.New(telemetry.Config{SampleRate: 1, Capacity: 64})
	m := NewManager(Config{Dir: t.TempDir(), Logger: quiet(), Tracer: tracer})
	defer m.Close()

	spec := Spec{Name: "telemetry", N: []int{3}, F: []int{1, 2}, GridPoints: 16}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateDone {
		t.Fatalf("job state %v: %+v", st.State, st)
	}

	stats := m.Stats()
	cells := int64(st.TotalCells)
	if cells == 0 {
		t.Fatalf("job reports 0 cells: %+v", st)
	}
	if stats.CellLatency.Count != cells {
		t.Errorf("cell latency count = %d, want %d", stats.CellLatency.Count, cells)
	}
	if stats.CellLatency.Buckets["+Inf"] != cells {
		t.Errorf("cell latency +Inf bucket = %d, want %d", stats.CellLatency.Buckets["+Inf"], cells)
	}
	if stats.CellLatency.Sum <= 0 {
		t.Errorf("cell latency sum = %g, want > 0", stats.CellLatency.Sum)
	}

	var cellTraces int
	for _, ref := range tracer.Refs() {
		tr := ref.Snapshot()
		if tr.Name != "sweep.cell" {
			continue
		}
		cellTraces++
		stages := map[string]bool{}
		for _, c := range tr.Root.Children {
			stages[c.Name] = true
		}
		for _, want := range []string{"cell.plan", "cell.compile", "cell.cr"} {
			if !stages[want] {
				t.Errorf("cell trace %s missing stage %q (has %v)", tr.TraceID, want, stages)
			}
		}
		if tr.Root.Attrs["attempts"] == nil {
			t.Errorf("cell trace %s missing attempts attr: %v", tr.TraceID, tr.Root.Attrs)
		}
	}
	if int64(cellTraces) != cells {
		t.Errorf("got %d sweep.cell traces, want %d", cellTraces, cells)
	}
}

// A manager without a tracer keeps the histogram and never panics on
// the span hooks.
func TestSweepNoTracerStillMeasures(t *testing.T) {
	m := NewManager(Config{Dir: t.TempDir(), Logger: quiet()})
	defer m.Close()
	j, err := m.Submit(Spec{Name: "no-tracer", N: []int{3}, F: []int{1}, GridPoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st.State != StateDone {
		t.Fatalf("job state %v", st.State)
	}
	if got := m.Stats().CellLatency.Count; got != 1 {
		t.Errorf("cell latency count = %d, want 1", got)
	}
}
