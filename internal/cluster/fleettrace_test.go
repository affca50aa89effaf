package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"linesearch/internal/faultpoint"
)

// sampledTraceparent is a fixed, sampled W3C header; its trace id is
// what the whole fleet must agree on.
const (
	stitchTraceID      = "4bf92f3577b34da6a3ce929d0e0e4736"
	sampledTraceparent = "00-" + stitchTraceID + "-00f067aa0ba902b7-01"
)

// fleetTraces fetches and decodes GET /debug/fleet-traces from the
// router's frontend.
func (f *fleet) fleetTraces(t *testing.T, query string) fleetTracesResponse {
	t.Helper()
	code, body := f.get(t, "/debug/fleet-traces"+query)
	if code != http.StatusOK {
		t.Fatalf("fleet-traces: status %d: %s", code, body)
	}
	var resp fleetTracesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode fleet-traces: %v\n%s", err, body)
	}
	return resp
}

// TestFleetTraceStitching is the end-to-end propagation test: one
// sampled request enters the router, replica-read fan-out forwards it
// to both owners, and /debug/fleet-traces must return a single stitched
// trace whose hops span all three processes — router and both backends
// — under the client's trace id.
func TestFleetTraceStitching(t *testing.T) {
	f := newFleet(t, 2, Config{})

	// Down the primary owner so the pure read fans out, but leave its
	// link intact: both owners serve the forwarded request, so both
	// backends record a hop for the trace.
	const query = "/v1/searchtime?n=4&f=2&x=3.5"
	req := httptest.NewRequest("GET", query, nil)
	key, _ := routingPolicy(req)
	f.router.mu.RLock()
	primary := f.router.ring.Owner(key)
	pb := f.router.backends[primary]
	f.router.mu.RUnlock()
	pb.down.Store(true)
	defer pb.down.Store(false)
	// Hold every evaluation briefly, so the second fan-out leg reaches
	// its backend before the first answer ends the client request and
	// cancels it.
	defer faultpoint.Reset()
	faultpoint.Arm("service.eval", faultpoint.Rule{Mode: faultpoint.ModeLatency, Delay: 50 * time.Millisecond})

	out, err := http.NewRequest("GET", f.frontend.URL+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	out.Header.Set("Traceparent", sampledTraceparent)
	resp, err := http.DefaultClient.Do(out)
	if err != nil {
		t.Fatalf("traced GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced GET: status %d", resp.StatusCode)
	}
	if f.router.replicaReads.Load() == 0 {
		t.Fatal("replica fan-out never engaged; the test is not exercising the multi-backend path")
	}

	// The slower fan-out leg may still be finishing its backend-side
	// trace when the client sees the first answer; poll briefly.
	var stitched FleetTrace
	deadline := time.Now().Add(2 * time.Second)
	for {
		fleet := f.fleetTraces(t, "?trace="+stitchTraceID)
		if len(fleet.Errors) > 0 {
			t.Fatalf("scrape errors on a healthy fleet: %v", fleet.Errors)
		}
		if len(fleet.Scraped) != 2 {
			t.Fatalf("scraped %v, want both backends", fleet.Scraped)
		}
		if len(fleet.Traces) == 1 && fleet.Traces[0].Processes == 3 {
			stitched = fleet.Traces[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no 3-process stitched trace for %s; last response: %+v", stitchTraceID, fleet)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if stitched.TraceID != stitchTraceID {
		t.Errorf("trace id = %s, want the client's %s", stitched.TraceID, stitchTraceID)
	}
	wantHops := map[string]bool{routerProcess: true, f.backendName(0): true, f.backendName(1): true}
	for i, hop := range stitched.Hops {
		if !wantHops[hop.Process] {
			t.Errorf("unexpected hop %q", hop.Process)
		}
		delete(wantHops, hop.Process)
		if hop.Trace.TraceID != stitchTraceID {
			t.Errorf("hop %s carries trace id %s; propagation broke", hop.Process, hop.Trace.TraceID)
		}
		if i == 0 && hop.Process != routerProcess {
			t.Errorf("first hop = %q, want the router leading the stitched tree", hop.Process)
		}
	}
	if len(wantHops) > 0 {
		t.Errorf("stitched trace missing hops: %v", wantHops)
	}

	// The router hop's tree must show the fan-out: a replica-read span
	// with one forward child per owner.
	router := stitched.Hops[0]
	var fanout int
	var sawReplicaRead bool
	var walk func(s SpanJSON)
	walk = func(s SpanJSON) {
		switch s.Name {
		case "replica-read":
			sawReplicaRead = true
		case "forward":
			fanout++
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(toSpanJSON(t, router.Trace.Root))
	if !sawReplicaRead || fanout != 2 {
		t.Errorf("router hop tree: replica-read=%v forwards=%d, want the 2-owner fan-out", sawReplicaRead, fanout)
	}

	// Hop attribution: the wall clock went to a backend, not the router.
	if stitched.SlowestHop == routerProcess || stitched.SlowestHop == "" {
		t.Errorf("slowest hop = %q, want a backend", stitched.SlowestHop)
	}
	if stitched.DurationSeconds <= 0 || stitched.SlowestHopSeconds <= 0 {
		t.Errorf("durations not populated: %+v", stitched)
	}
}

// SpanJSON re-decodes a span snapshot through its wire format, so the
// test walks exactly what an operator's jq would see.
type SpanJSON struct {
	Name     string     `json:"name"`
	Children []SpanJSON `json:"children"`
}

func toSpanJSON(t *testing.T, v any) SpanJSON {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var s SpanJSON
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFleetTracesToleratesDeadBackend pins the degraded-mode contract:
// a shard that cannot be scraped lands in the errors map and the
// endpoint still answers 200 with the live shards' traces.
func TestFleetTracesToleratesDeadBackend(t *testing.T) {
	f := newFleet(t, 2, Config{})
	// A couple of traced requests so the live rings are not empty.
	for i := 0; i < 3; i++ {
		f.get(t, fmt.Sprintf("/v1/plan?n=%d&f=1", i+2))
	}
	dead := f.backendName(1)
	f.backends[1].Close()

	fleet := f.fleetTraces(t, "")
	if fleet.Errors[dead] == "" {
		t.Fatalf("dead backend %s not reported in errors: %+v", dead, fleet.Errors)
	}
	if len(fleet.Scraped) != 1 || fleet.Scraped[0] != f.backendName(0) {
		t.Errorf("scraped = %v, want only the live backend", fleet.Scraped)
	}
	if fleet.Count == 0 {
		t.Error("no traces returned despite live router and backend rings")
	}
}

// TestFleetTracesParams covers the parameter contract shared with the
// backends' /debug/traces: bad values answer 400, n cuts the list.
func TestFleetTracesParams(t *testing.T) {
	f := newFleet(t, 1, Config{})
	for i := 0; i < 5; i++ {
		f.get(t, fmt.Sprintf("/v1/plan?n=%d&f=1", i+2))
	}
	for _, bad := range []string{"?n=0", "?n=x", "?scrape_n=-1"} {
		if code, body := f.get(t, "/debug/fleet-traces"+bad); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", bad, code, body)
		}
	}
	fleet := f.fleetTraces(t, "?n=2")
	if len(fleet.Traces) > 2 {
		t.Errorf("n=2 returned %d traces", len(fleet.Traces))
	}
	if fleet.Count < len(fleet.Traces) {
		t.Errorf("count %d below returned %d", fleet.Count, len(fleet.Traces))
	}
	// The router's own ring endpoint shares the validation.
	for _, bad := range []string{"?n=0", "?sort=upside-down"} {
		if code, _ := f.get(t, "/debug/traces"+bad); code != http.StatusBadRequest {
			t.Errorf("/debug/traces%s: status %d, want 400", bad, code)
		}
	}
	if !strings.HasPrefix(f.backendName(0), "127.0.0.1:") {
		t.Fatalf("backend name %q not a host:port", f.backendName(0))
	}
}
