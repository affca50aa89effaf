package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"linesearch/internal/telemetry"
)

// countSpans walks one span subtree.
func countSpans(s telemetry.SpanSnapshot) int {
	n := 1
	for _, c := range s.Children {
		n += countSpans(c)
	}
	return n
}

// A cold /v1/plan request must produce a full trace: the root request
// span with the evaluation stages nested under it (eval, the plan
// build, the geometry pass — at least 3 spans under the root), and a
// batch's fan-out span must report the workers it actually ran.
func TestDebugTracesColdPlanRequest(t *testing.T) {
	svc := newTestService(t, Config{BatchWorkers: 8})
	h := svc.Handler()

	if code, body := doReq(t, h, "GET", "/v1/plan?n=3&f=1", ""); code != http.StatusOK {
		t.Fatalf("plan status %d: %v", code, body)
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces?sort=slowest&n=5", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("debug/traces status %d: %s", w.Code, w.Body.String())
	}
	var resp telemetry.TracesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	var plan *telemetry.TraceSnapshot
	for i := range resp.Traces {
		if resp.Traces[i].Name == "/v1/plan" {
			plan = &resp.Traces[i]
			break
		}
	}
	if plan == nil {
		t.Fatalf("no /v1/plan trace in %d traces", len(resp.Traces))
	}
	if len(plan.TraceID) != 32 {
		t.Errorf("trace id %q is not 32 hex chars", plan.TraceID)
	}
	if nested := countSpans(plan.Root) - 1; nested < 3 {
		b, _ := json.MarshalIndent(plan.Root, "", "  ")
		t.Errorf("cold plan trace has %d nested spans, want >= 3:\n%s", nested, b)
	}
	var names []string
	var walk func(telemetry.SpanSnapshot)
	walk = func(s telemetry.SpanSnapshot) {
		names = append(names, s.Name)
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(plan.Root)
	joined := strings.Join(names, " ")
	for _, want := range []string{"eval", "plan.build", "plan.geometry"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing stage %q (got %v)", want, names)
		}
	}

	// A batch smaller than the worker limit reports the goroutines it
	// ran on its fan-out span, not the configured limit.
	body := `{"queries":[{"op":"lowerbound","n":3,"f":1},{"op":"lowerbound","n":4,"f":1}]}`
	if code, resp := doReq(t, h, "POST", "/v1/batch", body); code != http.StatusOK {
		t.Fatalf("batch status %d: %v", code, resp)
	}
	fanout := findSpan(t, h, "/v1/batch", "batch.fanout")
	if got := fanout.Attrs["workers"]; got != float64(2) {
		t.Errorf("batch.fanout workers = %v, want 2 (BatchWorkers %d, 2 queries)", got, svc.cfg.BatchWorkers)
	}
}

// findSpan fetches /debug/traces and returns the first span called name
// in the most recent trace of the request route.
func findSpan(t *testing.T, h http.Handler, route, name string) telemetry.SpanSnapshot {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces", nil))
	var resp telemetry.TracesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	var find func(telemetry.SpanSnapshot) (telemetry.SpanSnapshot, bool)
	find = func(s telemetry.SpanSnapshot) (telemetry.SpanSnapshot, bool) {
		if s.Name == name {
			return s, true
		}
		for _, c := range s.Children {
			if got, ok := find(c); ok {
				return got, true
			}
		}
		return telemetry.SpanSnapshot{}, false
	}
	for _, tr := range resp.Traces {
		if tr.Name == route {
			if s, ok := find(tr.Root); ok {
				return s
			}
		}
	}
	t.Fatalf("no %s span in a %s trace", name, route)
	return telemetry.SpanSnapshot{}
}

func TestDebugTracesParamValidation(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	for _, target := range []string{"/debug/traces?n=0", "/debug/traces?n=x", "/debug/traces?sort=fastest"} {
		if code, _ := doReq(t, h, "GET", target, ""); code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", target, code)
		}
	}
	// The n cut applies after sorting most-recent-first.
	for i := 0; i < 5; i++ {
		if code, _ := doReq(t, h, "GET", "/healthz", ""); code != http.StatusOK {
			t.Fatalf("healthz status %d", code)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces?n=2", nil))
	var resp telemetry.TracesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Traces) != 2 {
		t.Errorf("n=2 returned %d traces", len(resp.Traces))
	}
	if resp.Count < 5 {
		t.Errorf("count = %d, want >= 5", resp.Count)
	}
	for i := 1; i < len(resp.Traces); i++ {
		if resp.Traces[i].Start.After(resp.Traces[i-1].Start) {
			t.Errorf("traces not most-recent-first: %v after %v",
				resp.Traces[i-1].Start, resp.Traces[i].Start)
		}
	}
}

// The debug mux exposes pprof and the shared operational endpoints.
func TestDebugHandlerSurface(t *testing.T) {
	h := newTestService(t, Config{}).DebugHandler()
	for _, target := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/traces", "/metrics", "/healthz"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
		if w.Code != http.StatusOK {
			t.Errorf("GET %s: status %d", target, w.Code)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/plan?n=3&f=1", nil))
	if w.Code != http.StatusNotFound {
		t.Errorf("debug mux serves /v1/plan (status %d); serving routes do not belong there", w.Code)
	}
}
