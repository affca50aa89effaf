package telemetry

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// Traces renders every retained trace, oldest first within each
// stripe. A nil tracer returns nil.
func (t *Tracer) Traces() []TraceSnapshot {
	var out []TraceSnapshot
	for _, ref := range t.Refs() {
		out = append(out, ref.Snapshot())
	}
	return out
}

func TestSpanTreeAndSnapshot(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	ctx, root := tr.StartRequest(context.Background(), "/v1/plan", "")
	if root == nil {
		t.Fatal("rate-1 tracer did not sample")
	}
	root.SetStr("method", "GET")

	ctx2, eval := StartSpan(ctx, "eval")
	eval.SetStr("op", "plan")
	_, build := StartSpan(ctx2, "plan.build")
	build.SetBool("cache_hit", false)
	build.End()
	_, geom := StartSpan(ctx2, "plan.geometry")
	geom.End()
	eval.End()
	root.SetInt("status", 200)
	root.End()

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	got := traces[0]
	if got.Name != "/v1/plan" || len(got.TraceID) != 32 {
		t.Errorf("root name/id = %q %q", got.Name, got.TraceID)
	}
	if got.SpanCount != 4 {
		t.Errorf("span count = %d, want 4", got.SpanCount)
	}
	if got.Root.Attrs["method"] != "GET" || got.Root.Attrs["status"] != int64(200) {
		t.Errorf("root attrs = %v", got.Root.Attrs)
	}
	if len(got.Root.Children) != 1 || got.Root.Children[0].Name != "eval" {
		t.Fatalf("root children = %+v", got.Root.Children)
	}
	kids := got.Root.Children[0].Children
	if len(kids) != 2 || kids[0].Name != "plan.build" || kids[1].Name != "plan.geometry" {
		t.Fatalf("eval children = %+v", kids)
	}
	if kids[0].Attrs["cache_hit"] != false {
		t.Errorf("build attrs = %v", kids[0].Attrs)
	}
	if got.DurationSeconds <= 0 {
		t.Errorf("duration = %v", got.DurationSeconds)
	}
	for _, k := range kids {
		if k.StartOffsetSeconds < 0 || k.DurationSeconds < 0 {
			t.Errorf("span %s has negative timing: %+v", k.Name, k)
		}
	}

	st := tr.Stats()
	if st.RequestsSeen != 1 || st.Sampled != 1 || st.Finished != 1 || st.Buffered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSamplingEveryNth(t *testing.T) {
	tr := New(Config{SampleRate: 0.25})
	sampled := 0
	for i := 0; i < 100; i++ {
		_, s := tr.StartRequest(context.Background(), "r", "")
		if s != nil {
			sampled++
			s.End()
		}
	}
	if sampled != 25 {
		t.Errorf("sampled %d of 100 at rate 0.25, want exactly 25 (counter-based)", sampled)
	}
	if st := tr.Stats(); st.RequestsSeen != 100 || st.Sampled != 25 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSamplingDisabled(t *testing.T) {
	tr := New(Config{SampleRate: -1})
	// Even a sampled traceparent must not force a trace when disabled.
	ctx, s := tr.StartRequest(context.Background(), "r",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if s != nil {
		t.Fatal("disabled tracer sampled a request")
	}
	if TraceIDFrom(ctx) != "" {
		t.Error("disabled tracer put a span into the context")
	}
}

func TestNilTracerAndNilSpanAreSafe(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.StartRequest(context.Background(), "r", "")
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	_, child := StartSpan(ctx, "child")
	child.SetStr("k", "v")
	child.SetInt("n", 1)
	child.SetFloat("x", 1.5)
	child.SetBool("b", true)
	child.End()
	s.End()
	if st := tr.Stats(); st != (TracerStats{}) {
		t.Errorf("nil tracer stats = %+v", st)
	}
	if tr.Traces() != nil {
		t.Error("nil tracer returned traces")
	}
}

func TestTraceparentAdoption(t *testing.T) {
	const id = "4bf92f3577b34da6a3ce929d0e0e4736"
	cases := []struct {
		name   string
		header string
		wantID string
	}{
		{"sampled flag forces tracing", "00-" + id + "-00f067aa0ba902b7-01", id},
		{"unsampled flag still adopts the id once locally sampled", "00-" + id + "-00f067aa0ba902b7-00", id},
		{"malformed length", "00-" + id, ""},
		{"bad hex", "00-" + strings.Repeat("z", 32) + "-00f067aa0ba902b7-01", ""},
		{"all-zero trace id", "00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01", ""},
		{"absent", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := New(Config{SampleRate: 1}) // local sampling always fires
			ctx, s := tr.StartRequest(context.Background(), "r", tc.header)
			if s == nil {
				t.Fatal("rate-1 tracer did not sample")
			}
			got := TraceIDFrom(ctx)
			if tc.wantID != "" && got != tc.wantID {
				t.Errorf("trace id = %q, want adopted %q", got, tc.wantID)
			}
			if tc.wantID == "" && (len(got) != 32 || got == strings.Repeat("0", 32)) {
				t.Errorf("generated trace id = %q", got)
			}
			s.End()
		})
	}
}

func TestMaxSpansCap(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	tr.maxSpans = 3
	ctx, root := tr.StartRequest(context.Background(), "r", "")
	var spans []*Span
	for i := 0; i < 5; i++ {
		_, s := StartSpan(ctx, "child")
		spans = append(spans, s)
	}
	for _, s := range spans {
		s.End()
	}
	root.End()
	if spans[0] == nil || spans[1] == nil {
		t.Fatal("spans under the cap were refused")
	}
	if spans[2] != nil || spans[3] != nil || spans[4] != nil {
		t.Fatal("spans over the cap were created")
	}
	traces := tr.Traces()
	if len(traces) != 1 || traces[0].SpanCount != 3 || traces[0].DroppedSpans != 3 {
		t.Errorf("trace = %+v", traces)
	}
	if got := tr.Stats().SpansDropped; got != 3 {
		t.Errorf("spans dropped = %d, want 3", got)
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	_, root := tr.StartRequest(context.Background(), "r", "")
	root.End()
	d := tr.Traces()[0].DurationSeconds
	time.Sleep(2 * time.Millisecond)
	root.End()
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("double End pushed %d traces", len(traces))
	}
	if traces[0].DurationSeconds != d {
		t.Errorf("duration changed on second End: %v -> %v", d, traces[0].DurationSeconds)
	}
}

func TestUnendedChildTruncatedAtRootEnd(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	ctx, root := tr.StartRequest(context.Background(), "r", "")
	StartSpan(ctx, "leaked") // never ended
	time.Sleep(time.Millisecond)
	root.End()
	child := tr.Traces()[0].Root.Children[0]
	if child.DurationSeconds <= 0 || child.DurationSeconds > tr.Traces()[0].DurationSeconds {
		t.Errorf("leaked child duration = %v (trace %v)", child.DurationSeconds, tr.Traces()[0].DurationSeconds)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0.001, 0.01, 0.1)
	h.Observe(500 * time.Microsecond) // <= 0.001
	h.Observe(5 * time.Millisecond)   // <= 0.01
	h.Observe(50 * time.Millisecond)  // <= 0.1
	h.Observe(2 * time.Second)        // +Inf
	snap := h.Snapshot()
	if snap.Count != 4 {
		t.Errorf("count = %d", snap.Count)
	}
	want := map[string]int64{"0.001": 1, "0.01": 2, "0.1": 3, "+Inf": 4}
	for k, v := range want {
		if snap.Buckets[k] != v {
			t.Errorf("bucket %s = %d, want %d", k, snap.Buckets[k], v)
		}
	}
	if snap.Sum < 2.05 || snap.Sum > 2.06 {
		t.Errorf("sum = %v", snap.Sum)
	}
	var nilH *Histogram
	nilH.Observe(time.Second)
	if s := nilH.Snapshot(); s.Count != 0 || s.Buckets == nil {
		t.Errorf("nil histogram snapshot = %+v", s)
	}
}

func TestSlogHandlerAddsTraceID(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(WrapHandler(slog.NewJSONHandler(&buf, nil)))
	tr := New(Config{SampleRate: 1})
	ctx, s := tr.StartRequest(context.Background(), "r", "")

	logger.InfoContext(ctx, "request", "status", 200)
	if !strings.Contains(buf.String(), `"trace_id":"`+TraceIDFrom(ctx)+`"`) {
		t.Errorf("traced log line missing trace_id: %s", buf.String())
	}

	buf.Reset()
	logger.InfoContext(context.Background(), "request")
	if strings.Contains(buf.String(), "trace_id") {
		t.Errorf("untraced log line carries trace_id: %s", buf.String())
	}
	s.End()

	if h := WrapHandler(logger.Handler()); h != logger.Handler() {
		t.Error("double wrap produced a new handler")
	}
}

func TestUntracedPathDoesNotAllocate(t *testing.T) {
	tr := New(Config{SampleRate: 0.0001}) // effectively never samples in this loop
	tr.counter.Store(1)                   // keep the counter off the sampling residue
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		ctx2, root := tr.StartRequest(ctx, "r", "")
		_, child := StartSpan(ctx2, "child")
		child.SetInt("n", 1)
		child.End()
		root.SetInt("status", 200)
		root.End()
	})
	if allocs != 0 {
		t.Errorf("untraced path allocates %v times per request, want 0", allocs)
	}
}
