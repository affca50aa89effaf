package telemetry

import (
	"context"
	"testing"
)

// TestTraceparentRoundTrip pins the propagation contract: the header
// rendered for a traced ctx parses back to the same trace id with the
// sampled flag set, so the next process in the chain adopts the trace.
func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(Config{})
	ctx, span := tr.StartRequest(context.Background(), "req", "")
	if span == nil {
		t.Fatal("request not sampled")
	}
	defer span.End()

	tp := Traceparent(ctx)
	if len(tp) != 55 {
		t.Fatalf("Traceparent = %q (len %d), want 55 chars", tp, len(tp))
	}
	id, flags, ok := parseTraceparent(tp)
	if !ok {
		t.Fatalf("rendered header does not parse: %q", tp)
	}
	if id != TraceIDFrom(ctx) {
		t.Errorf("round-tripped id = %q, want %q", id, TraceIDFrom(ctx))
	}
	if flags&1 != 1 {
		t.Errorf("sampled flag not set: flags = %02x", flags)
	}

	// Two renders of the same ctx share the trace id but differ in the
	// parent-id field (each hop is its own logical parent).
	other := Traceparent(ctx)
	if other == tp {
		t.Errorf("consecutive Traceparent calls identical: %q", tp)
	}
}

func TestTraceparentUntraced(t *testing.T) {
	if tp := Traceparent(context.Background()); tp != "" {
		t.Errorf("untraced ctx Traceparent = %q, want empty", tp)
	}
	var nilTracer *Tracer
	ctx, _ := nilTracer.StartRequest(context.Background(), "req", "")
	if tp := Traceparent(ctx); tp != "" {
		t.Errorf("nil-tracer ctx Traceparent = %q, want empty", tp)
	}
}

// TestTruncatedTracesCounted is the satellite regression test: a trace
// that hits the per-trace span cap completes as exactly one truncated
// trace, while an uncapped trace counts zero — the loss that used to
// vanish into the per-span counter is now visible per trace.
func TestTruncatedTracesCounted(t *testing.T) {
	tr := New(Config{})
	tr.maxSpans = 2
	ctx, root := tr.StartRequest(context.Background(), "req", "")
	if root == nil {
		t.Fatal("request not sampled")
	}
	if _, s := StartSpan(ctx, "kept"); s == nil {
		t.Fatal("span under the cap refused")
	}
	for i := 0; i < 3; i++ {
		if _, s := StartSpan(ctx, "dropped"); s != nil {
			t.Fatal("span over the cap accepted")
		}
	}
	root.End()

	st := tr.Stats()
	if st.TruncatedTraces != 1 {
		t.Errorf("TruncatedTraces = %d, want 1", st.TruncatedTraces)
	}
	if st.SpansDropped != 3 {
		t.Errorf("SpansDropped = %d, want 3", st.SpansDropped)
	}

	// A clean trace does not increment the truncation counter.
	ctx2, root2 := tr.StartRequest(context.Background(), "req", "")
	_, s := StartSpan(ctx2, "ok")
	s.End()
	root2.End()
	if st := tr.Stats(); st.TruncatedTraces != 1 {
		t.Errorf("TruncatedTraces after clean trace = %d, want still 1", st.TruncatedTraces)
	}
}
