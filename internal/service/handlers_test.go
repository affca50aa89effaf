package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestService builds a service with a quiet logger.
func newTestService(t testing.TB, cfg Config) *Service {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return New(cfg)
}

// get performs a request against the handler and decodes the JSON body.
func doReq(t *testing.T, h http.Handler, method, target, body string) (int, map[string]any) {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	out := map[string]any{}
	if w.Body.Len() > 0 {
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: invalid JSON body %q: %v", method, target, w.Body.String(), err)
		}
	}
	return w.Code, out
}

func TestPlanEndpoint(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	code, body := doReq(t, h, "GET", "/v1/plan?n=3&f=1", "")
	if code != http.StatusOK {
		t.Fatalf("status %d, body %v", code, body)
	}
	if body["strategy"] != "proportional" || !strings.HasPrefix(body["regime"].(string), "proportional") {
		t.Errorf("plan = %v", body)
	}
	// The paper's Theorem 1 value for A(3, 1).
	if cr := body["competitive_ratio"].(float64); math.Abs(cr-5.2331) > 1e-3 {
		t.Errorf("competitive_ratio = %v, want 5.2331", cr)
	}
	if lb := body["lower_bound"].(float64); math.Abs(lb-3.76) > 5e-3 {
		t.Errorf("lower_bound = %v", lb)
	}
	if beta := body["beta"].(float64); math.Abs(beta-5.0/3) > 1e-9 {
		t.Errorf("beta = %v", beta)
	}
	robots := body["turning_points"].([]any)
	if len(robots) != 3 {
		t.Fatalf("turning points for %d robots, want 3", len(robots))
	}
	for i, r := range robots {
		pts := r.([]any)
		if len(pts) < 2 {
			t.Errorf("robot %d: %d turning points", i, len(pts))
		}
		first := pts[0].(map[string]any)
		if first["t"].(float64) != 0 || first["x"].(float64) != 0 {
			t.Errorf("robot %d does not start at the origin: %v", i, first)
		}
	}
}

func TestPlanEndpointTrivialRegime(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	code, body := doReq(t, h, "GET", "/v1/plan?n=6&f=2", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if body["strategy"] != "twogroup" || body["competitive_ratio"].(float64) != 1 {
		t.Errorf("trivial plan = %v", body)
	}
	if _, ok := body["beta"]; ok {
		t.Error("beta reported outside the proportional regime")
	}
}

func TestPlanEndpointExplicitStrategyAndMindist(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	code, body := doReq(t, h, "GET", "/v1/plan?n=3&f=1&strategy=doubling&mindist=2.5", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if body["strategy"] != "doubling" || body["competitive_ratio"].(float64) != 9 {
		t.Errorf("doubling plan = %v", body)
	}
	if body["mindist"].(float64) != 2.5 {
		t.Errorf("mindist = %v", body["mindist"])
	}
}

func TestSearchTimeEndpoint(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	code, body := doReq(t, h, "GET", "/v1/searchtime?n=3&f=1&x=4", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if got := body["time"].(float64); math.Abs(got-14.6667) > 1e-3 {
		t.Errorf("time = %v, want 14.6667", got)
	}
	if got := body["ratio"].(float64); math.Abs(got-14.6667/4) > 1e-3 {
		t.Errorf("ratio = %v", got)
	}
	if body["detected"] != true || body["k"].(float64) != 2 {
		t.Errorf("body = %v", body)
	}

	// k = 1 is the fault-free first visit, strictly earlier.
	_, kbody := doReq(t, h, "GET", "/v1/searchtime?n=3&f=1&x=4&k=1", "")
	if kbody["time"].(float64) >= 14.6667-1e-9 {
		t.Errorf("k=1 visit %v not earlier than worst case", kbody["time"])
	}
}

func TestSearchTimesEndpoint(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	code, body := doReq(t, h, "GET", "/v1/searchtimes?n=3&f=1&xs=4,-2.5,1", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	times := body["times"].([]any)
	if len(times) != 3 {
		t.Fatalf("%d times, want 3", len(times))
	}
	if body["detected"].(float64) != 3 {
		t.Errorf("detected = %v, want 3", body["detected"])
	}
	// Each entry must equal the single-target endpoint's answer.
	for i, raw := range []string{"4", "-2.5", "1"} {
		_, single := doReq(t, h, "GET", "/v1/searchtime?n=3&f=1&x="+raw, "")
		want := single["time"].(float64)
		if got := times[i].(float64); got != want {
			t.Errorf("times[%d] = %v, want %v (single-target answer)", i, got, want)
		}
	}
	// Echoed targets survive the round trip.
	xs := body["xs"].([]any)
	if len(xs) != 3 || xs[1].(float64) != -2.5 {
		t.Errorf("xs = %v", xs)
	}
}

func TestSearchTimesValidation(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	for _, tt := range []struct{ name, target string }{
		{"missing xs", "/v1/searchtimes?n=3&f=1"},
		{"empty xs", "/v1/searchtimes?n=3&f=1&xs="},
		{"bad float", "/v1/searchtimes?n=3&f=1&xs=1,zzz"},
		{"single-target param", "/v1/searchtimes?n=3&f=1&x=4"},
	} {
		code, body := doReq(t, h, "GET", tt.target, "")
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%v)", tt.name, code, body)
		}
		if body["error"] == nil || body["error"] == "" {
			t.Errorf("%s: no error message", tt.name)
		}
	}
}

func TestSearchTimesBatchAndLimits(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	req := `{"queries": [
		{"op": "searchtimes", "n": 3, "f": 1, "xs": [4, 1e9]},
		{"op": "searchtimes", "n": 3, "f": 1, "xs": []},
		{"op": "searchtimes", "n": 3, "f": 1}
	]}`
	code, body := doReq(t, h, "POST", "/v1/batch", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	results := body["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	first := results[0].(map[string]any)
	if first["ok"] != true {
		t.Fatalf("searchtimes batch item failed: %v", first)
	}
	res := first["result"].(map[string]any)
	if n := len(res["times"].([]any)); n != 2 {
		t.Errorf("batched searchtimes returned %d times, want 2", n)
	}
	for i, r := range results[1:] {
		item := r.(map[string]any)
		if item["ok"] != false || item["error"] == nil {
			t.Errorf("empty-xs batch item %d accepted: %v", i+1, item)
		}
	}

	// The per-query target cap is enforced at normalization.
	big := make([]string, maxBatchTargets+1)
	for i := range big {
		big[i] = "1"
	}
	over := fmt.Sprintf(`{"queries": [{"op": "searchtimes", "n": 3, "f": 1, "xs": [%s]}]}`,
		strings.Join(big, ","))
	code, body = doReq(t, h, "POST", "/v1/batch", over)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	item := body["results"].([]any)[0].(map[string]any)
	if item["ok"] != false || !strings.Contains(item["error"].(string), "limit") {
		t.Errorf("over-limit xs accepted: %v", item)
	}
}

func TestTimelineEndpoint(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	code, body := doReq(t, h, "GET", "/v1/timeline?n=3&f=1&x=2", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if body["detected"] != true || body["detection_time"] == nil {
		t.Errorf("no detection: %v", body)
	}
	events := body["events"].([]any)
	if len(events) == 0 {
		t.Fatal("empty timeline")
	}
	kinds := map[string]bool{}
	for _, e := range events {
		kinds[e.(map[string]any)["kind"].(string)] = true
	}
	for _, k := range []string{"start", "visit", "detect"} {
		if !kinds[k] {
			t.Errorf("timeline missing %q events: %v", k, kinds)
		}
	}
	// The adversarial fault set is reported.
	if len(body["faulty"].([]any)) != 1 {
		t.Errorf("faulty = %v", body["faulty"])
	}

	// Explicit fault assignment.
	code, body = doReq(t, h, "GET", "/v1/timeline?n=3&f=1&x=2&faulty=1&tmax=30", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if got := body["faulty"].([]any); len(got) != 1 || got[0].(float64) != 1 {
		t.Errorf("faulty = %v", got)
	}
}

func TestLowerBoundEndpoint(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	code, body := doReq(t, h, "GET", "/v1/lowerbound?n=3&f=1", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if got := body["lower_bound"].(float64); math.Abs(got-3.76) > 5e-3 {
		t.Errorf("lower_bound = %v", got)
	}
	if got := body["upper_bound"].(float64); math.Abs(got-5.2331) > 1e-3 {
		t.Errorf("upper_bound = %v", got)
	}
}

func TestMalformedParameters(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	bad := []string{
		"/v1/plan",                                  // n, f missing
		"/v1/plan?n=3",                              // f missing
		"/v1/plan?n=abc&f=1",                        // not an integer
		"/v1/plan?n=3&f=1&mindist=NaN",              // non-finite
		"/v1/plan?n=3&f=1&mindist=Inf",              // non-finite
		"/v1/plan?n=3&f=1&mindist=-1",               // out of domain
		"/v1/plan?n=3&f=1&mindist=0.5&horizon=1e12", // horizon cap
		"/v1/plan?n=2&f=2",                          // hopeless pair
		"/v1/plan?n=3&f=1&strategy=bogus",           // unknown strategy
		"/v1/plan?n=3&f=1&strategy=cone:Inf",
		"/v1/plan?n=3&f=1&stratgy=doubling", // typo in parameter name
		"/v1/plan?n=3&f=1&n=4",              // duplicated parameter
		"/v1/searchtime?n=3&f=1",            // x missing
		"/v1/searchtime?n=3&f=1&x=NaN",
		"/v1/searchtime?n=3&f=1&x=0.25",       // below mindist
		"/v1/searchtime?n=3&f=1&x=4&k=9",      // k > n
		"/v1/timeline?n=3&f=1&x=2&faulty=7",   // index out of range
		"/v1/timeline?n=3&f=1&x=2&tmax=-5",    // negative horizon
		"/v1/timeline?n=3&f=1&x=2&tmax=1e300", // above the horizon cap
		"/v1/lowerbound?n=0&f=0",
		"/v1/lowerbound?n=3&f=1&x=4", // x not accepted here
	}
	for _, target := range bad {
		code, body := doReq(t, h, "GET", target, "")
		if code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d (want 400), body %v", target, code, body)
		}
		if body["error"] == nil || body["error"] == "" {
			t.Errorf("GET %s: no error message", target)
		}
	}
}

// TestConeSlopeLimit checks that a cone slope too flat for the zig-zag
// tail to count its turns is a 400 that names the limit, on every
// endpoint that builds a plan, instead of a plan that reports reachable
// targets as never visited.
func TestConeSlopeLimit(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	for _, target := range []string{
		"/v1/plan?n=5&f=2&strategy=cone:1e15",
		"/v1/searchtime?n=5&f=2&strategy=cone:1e15&x=1e12",
		"/v1/searchtimes?n=5&f=2&strategy=uniform:1e15&xs=1,1e12",
	} {
		code, body := doReq(t, h, "GET", target, "")
		msg, _ := body["error"].(string)
		if code != http.StatusBadRequest || !strings.Contains(msg, "cone slope must not exceed 6.19") {
			t.Errorf("GET %s: %d %v, want a 400 naming the slope limit", target, code, body)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	for _, tt := range []struct{ method, target string }{
		{"POST", "/v1/plan?n=3&f=1"},
		{"DELETE", "/v1/searchtime?n=3&f=1&x=4"},
		{"GET", "/v1/batch"},
		{"PUT", "/metrics"},
	} {
		r := httptest.NewRequest(tt.method, tt.target, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tt.method, tt.target, w.Code)
		}
	}
}

func TestNotFound(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	r := httptest.NewRequest("GET", "/v2/plan?n=3&f=1", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusNotFound {
		t.Errorf("status %d, want 404", w.Code)
	}
}

func TestHealthz(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	code, body := doReq(t, h, "GET", "/healthz", "")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("healthz: %d %v", code, body)
	}
}

func TestBatchEndpoint(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	req := `{"queries": [
		{"op": "plan", "n": 3, "f": 1},
		{"op": "searchtime", "n": 3, "f": 1, "x": 4},
		{"op": "lowerbound", "n": 5, "f": 2},
		{"op": "plan", "n": 2, "f": 2},
		{"op": "frobnicate", "n": 3, "f": 1}
	]}`
	code, body := doReq(t, h, "POST", "/v1/batch", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	results := body["results"].([]any)
	if len(results) != 5 {
		t.Fatalf("%d results, want 5", len(results))
	}
	wantOK := []bool{true, true, true, false, false}
	for i, r := range results {
		item := r.(map[string]any)
		if item["ok"] != wantOK[i] {
			t.Errorf("result %d: ok = %v, want %v (%v)", i, item["ok"], wantOK[i], item)
		}
		if !wantOK[i] && (item["error"] == nil || item["error"] == "") {
			t.Errorf("result %d: failure without error message", i)
		}
	}
	if body["errors"].(float64) != 2 {
		t.Errorf("errors = %v, want 2", body["errors"])
	}
	// Spot-check a payload survived the fan-out.
	first := results[0].(map[string]any)["result"].(map[string]any)
	if cr := first["competitive_ratio"].(float64); math.Abs(cr-5.2331) > 1e-3 {
		t.Errorf("batched plan CR = %v", cr)
	}
}

func TestBatchValidation(t *testing.T) {
	h := newTestService(t, Config{MaxBatch: 2}).Handler()
	for _, tt := range []struct {
		name, body string
	}{
		{"invalid JSON", `{"queries": [`},
		{"empty", `{"queries": []}`},
		{"no field", `{}`},
		{"unknown field", `{"queries": [], "extra": 1}`},
		{"too large", `{"queries": [{"op":"lowerbound","n":3,"f":1},{"op":"lowerbound","n":3,"f":1},{"op":"lowerbound","n":3,"f":1}]}`},
	} {
		code, body := doReq(t, h, "POST", "/v1/batch", tt.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400), body %v", tt.name, code, body)
		}
	}
}

// TestBatchRejectsTrailingData: a batch body is exactly one JSON
// object. Anything but JSON whitespace after it is a 400 naming the
// body as invalid; a trailing newline or blank is fine.
func TestBatchRejectsTrailingData(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	const batch = `{"queries":[{"op":"lowerbound","n":5,"f":2}]}`
	for _, tt := range []struct {
		name, body string
		want       int
	}{
		{"garbage", batch + ` garbage`, http.StatusBadRequest},
		{"second object", batch + `{"queries":[]}`, http.StatusBadRequest},
		{"closing brace", batch + `}`, http.StatusBadRequest},
		{"whitespace then data", batch + "\n\t 1", http.StatusBadRequest},
		{"trailing newline", batch + "\n", http.StatusOK},
		{"trailing whitespace", batch + " \r\n\t ", http.StatusOK},
	} {
		code, body := doReq(t, h, "POST", "/v1/batch", tt.body)
		if code != tt.want {
			t.Errorf("%s: status %d, want %d (body %v)", tt.name, code, tt.want, body)
			continue
		}
		if code == http.StatusBadRequest {
			if msg, _ := body["error"].(string); !strings.HasPrefix(msg, "invalid batch body: ") {
				t.Errorf("%s: error %q does not name the batch body", tt.name, msg)
			}
		}
	}
}

// TestBatchCancelledMidFanout: a batch whose context ends while the
// fan-out is running starts no further query and answers 503. The
// first query's plan build cancels the request; with one worker the
// second query never starts.
func TestBatchCancelledMidFanout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var builds atomic.Int64
	h := newTestService(t, Config{
		BatchWorkers: 1,
		// No timeout handler: it would answer the cancellation itself.
		RequestTimeout: -1,
		Build: func(k PlanKey) (*Plan, error) {
			builds.Add(1)
			cancel()
			return defaultBuild(k)
		},
	}).Handler()
	body := `{"queries":[{"op":"plan","n":3,"f":1},{"op":"plan","n":4,"f":1}]}`
	r := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", w.Code)
	}
	if !strings.Contains(w.Body.String(), "batch cancelled") {
		t.Errorf("body %q does not say the batch was cancelled", w.Body.String())
	}
	if b := builds.Load(); b != 1 {
		t.Errorf("%d plans built, want 1: a query started after the cancellation", b)
	}
}

// TestSearchTimesCancelledIs503 checks that a searchtimes request whose
// context is cancelled before the kernel runs stops with the context
// error and answers 503, a server-side condition the client may retry,
// not a 400.
func TestSearchTimesCancelledIs503(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := newTestService(t, Config{
		// No timeout handler: it would answer the cancellation itself.
		RequestTimeout: -1,
		Build: func(k PlanKey) (*Plan, error) {
			cancel()
			return defaultBuild(k)
		},
	}).Handler()
	r := httptest.NewRequest("GET", "/v1/searchtimes?n=41&f=20&xs=1,2,3", nil).WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), context.Canceled.Error()) {
		t.Errorf("body %q does not name the cancellation", w.Body.String())
	}
	for _, err := range []error{context.Canceled, fmt.Errorf("eval: %w", context.DeadlineExceeded)} {
		if got := statusOf(err); got != http.StatusServiceUnavailable {
			t.Errorf("statusOf(%v) = %d, want 503", err, got)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	// Two identical plan queries: one miss then one hit.
	doReq(t, h, "GET", "/v1/plan?n=3&f=1", "")
	doReq(t, h, "GET", "/v1/plan?n=3&f=1", "")
	doReq(t, h, "GET", "/v1/plan?n=0&f=0", "") // a 400

	code, body := doReq(t, h, "GET", "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	// Two misses: the first plan build plus the failed build for the
	// invalid pair (failed builds count as misses but are not cached).
	cache := body["cache"].(map[string]any)
	if cache["hits"].(float64) != 1 || cache["misses"].(float64) != 2 || cache["size"].(float64) != 1 {
		t.Errorf("cache stats = %v", cache)
	}
	plan := body["endpoints"].(map[string]any)["/v1/plan"].(map[string]any)
	if plan["requests"].(float64) != 3 {
		t.Errorf("plan requests = %v", plan["requests"])
	}
	status := plan["status"].(map[string]any)
	if status["2xx"].(float64) != 2 || status["4xx"].(float64) != 1 {
		t.Errorf("status classes = %v", status)
	}
	lat := plan["latency_seconds"].(map[string]any)
	if lat["count"].(float64) != 3 {
		t.Errorf("latency count = %v", lat["count"])
	}
	if body["uptime_seconds"].(float64) < 0 {
		t.Error("negative uptime")
	}
}

// TestRequestTimeout pins the deadline contract: a request whose plan
// build outlives the budget answers 503 at its deadline, and so does a
// herd waiter at its own; a waiter whose client leaves answers 503 too;
// /metrics counts all three as 5xx; and the build still finishes and
// is cached, so the next request is a hit.
func TestRequestTimeout(t *testing.T) {
	const budget = 50 * time.Millisecond
	var builds atomic.Int64
	release := make(chan struct{})
	released := false
	unblock := func() {
		if !released {
			released = true
			close(release)
		}
	}
	defer unblock()
	svc := newTestService(t, Config{RequestTimeout: budget, Build: func(k PlanKey) (*Plan, error) {
		builds.Add(1)
		<-release // the build runs far past the budget
		return defaultBuild(k)
	}})
	h := svc.Handler()

	for _, who := range []string{"miss", "herd waiter"} {
		start := time.Now()
		r := httptest.NewRequest("GET", "/v1/plan?n=3&f=1", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		elapsed := time.Since(start)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503: %s", who, w.Code, w.Body.String())
		}
		if elapsed < budget || elapsed > 8*budget {
			t.Errorf("%s: answered after %v, want its own deadline (budget %v)", who, elapsed, budget)
		}
	}

	// A client that leaves while waiting (the router cancelling the
	// losing leg of a replica read) is answered and counted like any
	// other cancelled evaluation: 503, naming the cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(budget/5, cancel)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/plan?n=3&f=1", nil).WithContext(ctx))
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), context.Canceled.Error()) {
		t.Errorf("client gone: status %d, body %s; want 503 naming the cancellation", w.Code, w.Body.String())
	}

	_, m := doReq(t, h, "GET", "/metrics", "")
	status := m["endpoints"].(map[string]any)["/v1/plan"].(map[string]any)["status"].(map[string]any)
	if status["5xx"] != 3.0 || status["2xx"] != 0.0 {
		t.Errorf("/v1/plan status classes = %v, want both timeouts and the cancellation counted as 5xx", status)
	}
	if st := svc.Cache().Stats(); st.Misses != 1 || st.InflightWaits != 2 {
		t.Errorf("cache stats = %+v, want one miss and two in-flight waits", st)
	}

	unblock()
	for deadline := time.Now().Add(10 * time.Second); svc.Cache().Stats().Size == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the timed-out build was never cached")
		}
	}
	if code, body := doReq(t, h, "GET", "/v1/plan?n=3&f=1", ""); code != http.StatusOK {
		t.Fatalf("after the build: status %d, body %v", code, body)
	}
	if st := svc.Cache().Stats(); st.Hits != 1 {
		t.Errorf("cache stats = %+v, want the request after the build to hit", st)
	}
	if b := builds.Load(); b != 1 {
		t.Errorf("%d builds, want 1", b)
	}
}

// TestPlanColdKeyHammer is the -race herd test required by the issue:
// many concurrent requests for one cold cache key must construct the
// plan exactly once and all succeed.
func TestPlanColdKeyHammer(t *testing.T) {
	var builds atomic.Int64
	h := newTestService(t, Config{Build: func(k PlanKey) (*Plan, error) {
		builds.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the herd window
		return defaultBuild(k)
	}}).Handler()

	const herd = 64
	var wg sync.WaitGroup
	codes := make([]int, herd)
	bodies := make([][]byte, herd)
	wg.Add(herd)
	for i := 0; i < herd; i++ {
		go func(i int) {
			defer wg.Done()
			r := httptest.NewRequest("GET", "/v1/plan?n=3&f=1", nil)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			codes[i] = w.Code
			bodies[i] = w.Body.Bytes()
		}(i)
	}
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("plan constructed %d times under the herd, want exactly 1", got)
	}
	for i := 0; i < herd; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, codes[i], bodies[i])
		}
	}
	// And the metrics agree: one miss, the rest hits or in-flight waits.
	_, m := doReq(t, h, "GET", "/metrics", "")
	cache := m["cache"].(map[string]any)
	if cache["misses"].(float64) != 1 {
		t.Errorf("cache misses = %v, want 1", cache["misses"])
	}
	total := cache["hits"].(float64) + cache["inflight_waits"].(float64)
	if total != herd-1 {
		t.Errorf("hits+waits = %v, want %d", total, herd-1)
	}
}

// TestConcurrentMixedTraffic exercises every endpoint at once under
// -race.
func TestConcurrentMixedTraffic(t *testing.T) {
	h := newTestService(t, Config{CacheSize: 4}).Handler()
	targets := []string{
		"/v1/plan?n=3&f=1",
		"/v1/plan?n=5&f=2",
		"/v1/plan?n=5&f=3",
		"/v1/plan?n=7&f=3",
		"/v1/plan?n=9&f=4", // five keys through a 4-entry cache: forces eviction churn
		"/v1/searchtime?n=3&f=1&x=7.5",
		"/v1/timeline?n=3&f=1&x=2",
		"/v1/lowerbound?n=11&f=5",
		"/healthz",
		"/metrics",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				target := targets[(g+i)%len(targets)]
				r := httptest.NewRequest("GET", target, nil)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					t.Errorf("GET %s: %d %s", target, w.Code, w.Body.String())
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBatchPartialFailureParallel: a batch bigger than the worker pool
// still returns every result in order.
func TestBatchLargeOrdered(t *testing.T) {
	h := newTestService(t, Config{BatchWorkers: 3}).Handler()
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i < 40; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		// Alternate valid and invalid pairs so order is observable.
		if i%2 == 0 {
			fmt.Fprintf(&sb, `{"op":"lowerbound","n":%d,"f":%d}`, i/2+2, 1)
		} else {
			sb.WriteString(`{"op":"lowerbound","n":0,"f":5}`)
		}
	}
	sb.WriteString(`]}`)
	code, body := doReq(t, h, "POST", "/v1/batch", sb.String())
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	results := body["results"].([]any)
	if len(results) != 40 {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		item := r.(map[string]any)
		wantOK := i%2 == 0
		if item["ok"] != wantOK {
			t.Errorf("result %d: ok=%v want %v", i, item["ok"], wantOK)
			continue
		}
		if wantOK {
			n := item["result"].(map[string]any)["n"].(float64)
			if int(n) != i/2+2 {
				t.Errorf("result %d out of order: n=%v", i, n)
			}
		}
	}
	if body["errors"].(float64) != 20 {
		t.Errorf("errors = %v", body["errors"])
	}
}

// TestAnswersDeclareLength pins that every JSON answer carries its
// exact Content-Length over real HTTP, so large plans, curves and
// batches are never chunked and a router reads each into one buffer.
func TestAnswersDeclareLength(t *testing.T) {
	srv := httptest.NewServer(newTestService(t, Config{}).Handler())
	defer srv.Close()
	xs := make([]string, 300)
	for i := range xs {
		xs[i] = fmt.Sprint(1 + i)
	}
	batch := `{"queries":[{"op":"plan","n":41,"f":21},{"op":"plan","n":41,"f":21},` +
		`{"op":"plan","n":2,"f":2},{"op":"searchtime","n":41,"f":21,"x":7.5}]}`
	for _, tc := range []struct{ name, method, target, body string }{
		{"plan miss", "GET", "/v1/plan?n=41&f=21", ""},
		{"plan hit", "GET", "/v1/plan?n=41&f=21", ""},
		{"searchtimes", "GET", "/v1/searchtimes?n=41&f=21&xs=" + strings.Join(xs, ","), ""},
		{"timeline", "GET", "/v1/timeline?n=41&f=21&x=7.5", ""},
		{"batch", "POST", "/v1/batch", batch},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.target, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: read: %v", tc.name, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, body)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
				tc.name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}
