package cluster

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fakeClock is an injectable monotonic clock for the SLO ring.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 30, 0, time.UTC)}
}

func windowByLabel(t *testing.T, st SLOStats, label string) SLOWindow {
	t.Helper()
	for _, w := range st.Windows {
		if w.Window == label {
			return w
		}
	}
	t.Fatalf("no %s window in %+v", label, st)
	return SLOWindow{}
}

// TestSLOBurnFormula pins the burn-rate definition: burn =
// badFraction / (1 - objective), so 1.0 means burning exactly at the
// rate the objective allows.
func TestSLOBurnFormula(t *testing.T) {
	clock := newFakeClock()
	m := newSLOMonitor(0.99, 250*time.Millisecond, clock.now)

	// 100 requests: 2 errors, 5 slow. Error rate 0.02 against a 0.01
	// budget burns at 2.0; slow rate 0.05 burns at 5.0.
	for i := 0; i < 100; i++ {
		status, lat := http.StatusOK, 10*time.Millisecond
		if i < 2 {
			status = http.StatusInternalServerError
		}
		if i >= 2 && i < 7 {
			lat = 400 * time.Millisecond
		}
		m.observe(status, lat)
	}
	st := m.snapshot()
	if st.Objective != 0.99 || st.LatencyBudgetSeconds != 0.25 {
		t.Fatalf("config echo wrong: %+v", st)
	}
	for _, label := range []string{"5m", "1h"} {
		w := windowByLabel(t, st, label)
		if w.Requests != 100 {
			t.Errorf("%s: requests = %d", label, w.Requests)
		}
		if math.Abs(w.ErrorBurnRate-2.0) > 1e-9 {
			t.Errorf("%s: error burn = %v, want 2.0", label, w.ErrorBurnRate)
		}
		if math.Abs(w.LatencyBurnRate-5.0) > 1e-9 {
			t.Errorf("%s: latency burn = %v, want 5.0", label, w.LatencyBurnRate)
		}
	}
}

// TestSLOWindowing proves the multi-window split: observations older
// than the short window drop out of its burn but stay in the long one,
// and observations past the long window vanish entirely.
func TestSLOWindowing(t *testing.T) {
	clock := newFakeClock()
	m := newSLOMonitor(0.99, 250*time.Millisecond, clock.now)

	// An all-error burst now...
	for i := 0; i < 10; i++ {
		m.observe(http.StatusInternalServerError, time.Millisecond)
	}
	short := windowByLabel(t, m.snapshot(), "5m")
	if short.Requests != 10 || short.ErrorBurnRate == 0 {
		t.Fatalf("burst not visible in 5m window: %+v", short)
	}

	// ...ages out of the 5m window but still burns the 1h budget.
	clock.advance(10 * time.Minute)
	m.observe(http.StatusOK, time.Millisecond) // fresh good minute
	st := m.snapshot()
	short = windowByLabel(t, st, "5m")
	long := windowByLabel(t, st, "1h")
	if short.Requests != 1 || short.ErrorBurnRate != 0 {
		t.Errorf("5m window still sees the aged burst: %+v", short)
	}
	if long.Requests != 11 || long.ErrorBurnRate == 0 {
		t.Errorf("1h window lost the burst: %+v", long)
	}

	// Past the long horizon, the burst is gone everywhere.
	clock.advance(2 * time.Hour)
	long = windowByLabel(t, m.snapshot(), "1h")
	if long.Requests != 0 || long.ErrorBurnRate != 0 {
		t.Errorf("burst survived 2h: %+v", long)
	}
}

// TestSLOSlotReuse drives the clock far enough that ring slots are
// reclaimed by later minutes: a stale slot must reset, not leak its
// old counts into the fresh minute.
func TestSLOSlotReuse(t *testing.T) {
	clock := newFakeClock()
	m := newSLOMonitor(0.99, 250*time.Millisecond, clock.now)
	m.observe(http.StatusInternalServerError, time.Second)
	// sloBuckets minutes later, the same slot index comes around again.
	clock.advance(sloBuckets * time.Minute)
	m.observe(http.StatusOK, time.Millisecond)
	w := windowByLabel(t, m.snapshot(), "5m")
	if w.Requests != 1 || w.ErrorRate != 0 || w.SlowRate != 0 {
		t.Errorf("reclaimed slot leaked stale counts: %+v", w)
	}
}

// TestSLODefaults pins the config guard rails.
func TestSLODefaults(t *testing.T) {
	m := newSLOMonitor(0, 0, nil)
	if m.objective != 0.99 || m.budget != 250*time.Millisecond {
		t.Errorf("defaults = %v/%v", m.objective, m.budget)
	}
	m = newSLOMonitor(1.5, -time.Second, nil)
	if m.objective != 0.99 || m.budget != 250*time.Millisecond {
		t.Errorf("out-of-range config not clamped: %v/%v", m.objective, m.budget)
	}
	if m.now == nil {
		t.Error("nil clock not defaulted")
	}
}

// TestRouterSLOEndToEnd checks the wiring: routed requests move the
// monitor, and the burn surfaces on /healthz and the Prometheus
// exposition.
func TestRouterSLOEndToEnd(t *testing.T) {
	f := newFleet(t, 2, Config{})
	for _, q := range []string{"/v1/plan?n=3&f=1", "/v1/plan?n=4&f=1", "/v1/plan?n=5&f=2"} {
		if code, _ := f.get(t, q); code != http.StatusOK {
			t.Fatalf("%s: %d", q, code)
		}
	}
	st := f.router.Stats()
	w := windowByLabel(t, st.SLO, "5m")
	if w.Requests != 3 {
		t.Fatalf("SLO monitor saw %d requests, want 3", w.Requests)
	}
	if w.ErrorBurnRate != 0 {
		t.Errorf("healthy fleet burns error budget: %+v", w)
	}
	code, body := f.get(t, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	for _, want := range []string{`"slo"`, `"error_burn_rate"`, `"window":"5m"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("healthz missing %s:\n%s", want, body)
		}
	}
	req := httptest.NewRequest("GET", "/metrics?format=prometheus", nil)
	rw := httptest.NewRecorder()
	f.router.Handler().ServeHTTP(rw, req)
	for _, want := range []string{
		`linerouter_slo_objective 0.99`,
		`linerouter_slo_error_burn_rate{window="5m"}`,
		`linerouter_slo_latency_burn_rate{window="1h"}`,
		`linerouter_slo_window_requests{window="5m"} 3`,
	} {
		if !strings.Contains(rw.Body.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}
