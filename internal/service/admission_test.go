package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"linesearch/internal/faultpoint"
)

// doRaw performs a request and returns the raw recorder so tests can
// inspect headers alongside the status.
func doRaw(h http.Handler, method, target string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, target, nil))
	return w
}

// TestAdmissionShedsQueriesAt429: with one query slot held by a slow
// build, the next query is shed with a 429 and Retry-After while
// healthz and metrics still answer; releasing the slot restores
// service and the shed shows up on /metrics.
func TestAdmissionShedsQueriesAt429(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	svc := newTestService(t, Config{
		Build: func(k PlanKey) (*Plan, error) {
			close(entered)
			<-release
			return defaultBuild(k)
		},
	})
	defer svc.Close()
	svc.limiters[classQuery] = newClassLimiter(1)
	h := svc.Handler()

	done := make(chan int)
	go func() {
		done <- doRaw(h, "GET", "/v1/plan?n=3&f=1").Code
	}()
	<-entered // the single slot is now held inside the build

	shed := doRaw(h, "GET", "/v1/lowerbound?n=3&f=1")
	if shed.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", shed.Code, shed.Body)
	}
	if shed.Header().Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if !strings.Contains(shed.Body.String(), "in-flight limit") {
		t.Errorf("shed body %q", shed.Body)
	}
	// Probes are never limited.
	for _, probe := range []string{"/healthz", "/metrics"} {
		if w := doRaw(h, "GET", probe); w.Code != http.StatusOK {
			t.Errorf("%s during saturation: %d", probe, w.Code)
		}
	}

	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("held request finished %d", code)
	}
	if w := doRaw(h, "GET", "/v1/lowerbound?n=3&f=1"); w.Code != http.StatusOK {
		t.Errorf("post-release query: %d", w.Code)
	}
	if got := svc.resilience().Shed[classQuery]; got != 1 {
		t.Errorf("shed[query] = %d, want 1", got)
	}
	if got := svc.resilience().Inflight[classQuery]; got != 0 {
		t.Errorf("inflight[query] = %d, want 0", got)
	}
}

// TestAdmissionClassesAreIndependent: a saturated sweeps class does not
// shed queries.
func TestAdmissionClassesAreIndependent(t *testing.T) {
	svc := newTestService(t, Config{})
	defer svc.Close()
	svc.limiters[classSweeps] = newClassLimiter(1)
	// Hold the sweeps slot directly; the query class must be unaffected.
	if !svc.limiters[classSweeps].tryAcquire() {
		t.Fatal("could not take the sweeps slot")
	}
	defer svc.limiters[classSweeps].release()
	h := svc.Handler()
	if w := doRaw(h, "GET", "/v1/sweeps"); w.Code != http.StatusTooManyRequests {
		t.Errorf("sweeps list with held slot: %d, want 429", w.Code)
	}
	if w := doRaw(h, "GET", "/v1/lowerbound?n=3&f=1"); w.Code != http.StatusOK {
		t.Errorf("query during sweeps saturation: %d", w.Code)
	}
}

// TestTransientFaultsMapTo503: an injected fault at the service
// evaluation path surfaces as a 503 with Retry-After (the failure is
// the server's, and momentary), then service recovers; the injection
// is visible on /metrics.
func TestTransientFaultsMapTo503(t *testing.T) {
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	svc := newTestService(t, Config{})
	defer svc.Close()
	h := svc.Handler()

	faultpoint.Arm("service.eval", faultpoint.Rule{Times: 1})
	w := doRaw(h, "GET", "/v1/lowerbound?n=3&f=1")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (body %s)", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
	if w := doRaw(h, "GET", "/v1/lowerbound?n=3&f=1"); w.Code != http.StatusOK {
		t.Errorf("post-fault query: %d", w.Code)
	}
	if rs := svc.resilience(); rs.FaultsInjected < 1 {
		t.Errorf("faults_injected = %d, want >= 1", rs.FaultsInjected)
	}
}

// TestBuildFaultMapsTo503: the plan-construction fault point fails the
// build transiently; the error reaches the client as a 503 and is not
// cached, so the next request succeeds.
func TestBuildFaultMapsTo503(t *testing.T) {
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	svc := newTestService(t, Config{}) // nil Build: the production builder
	defer svc.Close()
	h := svc.Handler()

	faultpoint.Arm("service.build", faultpoint.Rule{Times: 1})
	if w := doRaw(h, "GET", "/v1/plan?n=3&f=1"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (body %s)", w.Code, w.Body)
	}
	if w := doRaw(h, "GET", "/v1/plan?n=3&f=1"); w.Code != http.StatusOK {
		t.Errorf("post-fault plan: %d", w.Code)
	}
	if st := svc.Cache().Stats(); st.Size != 1 {
		t.Errorf("cache size %d after failed+successful build, want 1", st.Size)
	}
}
