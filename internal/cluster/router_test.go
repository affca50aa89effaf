package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"linesearch/internal/faultpoint"
	"linesearch/internal/service"
)

// fleet is a router fronting n in-process linesearchd backends.
type fleet struct {
	router   *Router
	frontend *httptest.Server // the router's own listener
	backends []*httptest.Server
	services []*service.Service
}

func (f *fleet) close() {
	f.frontend.Close()
	f.router.Close()
	for _, b := range f.backends {
		b.Close()
	}
	for _, s := range f.services {
		s.Close()
	}
}

// newFleet builds n real service instances behind httptest listeners
// and a router over them. The health loop is disabled: tests drive
// ProbeAll deterministically.
func newFleet(t *testing.T, n int, cfg Config) *fleet {
	t.Helper()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	f := &fleet{}
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		svc := service.New(service.Config{Logger: quiet})
		srv := httptest.NewServer(svc.Handler())
		f.services = append(f.services, svc)
		f.backends = append(f.backends, srv)
		urls = append(urls, srv.URL)
	}
	cfg.Backends = urls
	cfg.HealthInterval = -1
	if cfg.Logger == nil {
		cfg.Logger = quiet
	}
	router, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f.router = router
	f.frontend = httptest.NewServer(router.Handler())
	t.Cleanup(f.close)
	return f
}

// backendName returns the ring member name of backend i.
func (f *fleet) backendName(i int) string {
	return strings.TrimPrefix(f.backends[i].URL, "http://")
}

// cacheStats reads one backend's plan-cache counters off its JSON
// /metrics surface.
func (f *fleet) cacheStats(t *testing.T, i int) service.CacheStats {
	t.Helper()
	resp, err := http.Get(f.backends[i].URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap struct {
		Cache service.CacheStats `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	return snap.Cache
}

// get issues one GET through the router's frontend.
func (f *fleet) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(f.frontend.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// queryMix is the request set the byte-identity and chaos tests drive:
// every query-class endpoint with a spread of plan keys.
func queryMix() []string {
	var out []string
	for n := 2; n <= 7; n++ {
		for fcount := 1; fcount < n && fcount <= 3; fcount++ {
			out = append(out,
				fmt.Sprintf("/v1/plan?n=%d&f=%d", n, fcount),
				fmt.Sprintf("/v1/searchtime?n=%d&f=%d&x=4.5", n, fcount),
				fmt.Sprintf("/v1/lowerbound?n=%d&f=%d", n, fcount),
			)
		}
	}
	return out
}

// TestRouterByteIdenticalToSingleProcess pins the proxy transparency
// contract: for the full query mix, a 3-backend fleet answers byte for
// byte what one unsharded linesearchd answers.
func TestRouterByteIdenticalToSingleProcess(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	single := service.New(service.Config{Logger: quiet})
	defer single.Close()
	ref := httptest.NewServer(single.Handler())
	defer ref.Close()

	f := newFleet(t, 3, Config{})
	for _, q := range queryMix() {
		want, err := http.Get(ref.URL + q)
		if err != nil {
			t.Fatalf("reference GET %s: %v", q, err)
		}
		wantBody, _ := io.ReadAll(want.Body)
		want.Body.Close()

		code, gotBody := f.get(t, q)
		if code != want.StatusCode {
			t.Fatalf("%s: status %d via router, %d direct", q, code, want.StatusCode)
		}
		if !bytes.Equal(gotBody, wantBody) {
			t.Errorf("%s: body differs\nrouter: %s\ndirect: %s", q, gotBody, wantBody)
		}
	}
	// The same request twice must land on the same backend (ring
	// placement is deterministic): cache counters prove it — a second
	// pass over the mix is all hits somewhere, never a duplicate build.
	var missesBefore, hitsBefore int64
	for i := range f.backends {
		cs := f.cacheStats(t, i)
		missesBefore += cs.Misses
		hitsBefore += cs.Hits
	}
	for _, q := range queryMix() {
		f.get(t, q)
	}
	var missesAfter, hitsAfter int64
	for i := range f.backends {
		cs := f.cacheStats(t, i)
		missesAfter += cs.Misses
		hitsAfter += cs.Hits
	}
	if missesAfter != missesBefore {
		t.Errorf("second pass caused %d cache misses; ring placement not sticky", missesAfter-missesBefore)
	}
	if hitsAfter <= hitsBefore {
		t.Errorf("second pass produced no cache hits (before %d, after %d)", hitsBefore, hitsAfter)
	}
}

// TestRouterFailoverOnKilledBackend is the deterministic integration
// test: a 3-backend fleet, one backend killed mid-run via its
// injection point, every client request still succeeds via retry, and
// the killed backend's share is served by the survivors with no
// duplicate side effects (the query mix is read-only compute).
func TestRouterFailoverOnKilledBackend(t *testing.T) {
	f := newFleet(t, 3, Config{})
	t.Cleanup(faultpoint.Reset)

	// Kill backend 0: every forward to it fails at the injection point,
	// exactly as if the process dropped the connection.
	faultpoint.Arm(fpForward+"."+f.backendName(0), faultpoint.Rule{Mode: faultpoint.ModeError})

	for _, q := range queryMix() {
		code, body := f.get(t, q)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d with a killed backend, body %s", q, code, body)
		}
	}
	st := f.router.Stats()
	if st.ProxyErrors != 0 {
		t.Errorf("proxy errors = %d, want 0 (failover should absorb the kill)", st.ProxyErrors)
	}
	if st.Retries == 0 {
		t.Errorf("retries = 0; the killed backend's keys never failed over")
	}

	// Restart: disarm the point; the backend serves again once its
	// breaker cooldown lapses (forced here via a probe-driven reset).
	faultpoint.Reset()
	f.router.ProbeAll()
	for _, q := range queryMix() {
		if code, body := f.get(t, q); code != http.StatusOK {
			t.Fatalf("%s after restart: status %d, body %s", q, code, body)
		}
	}
}

// TestRouterChaosKillRestart is the acceptance-criteria run: client
// load races a chaos schedule that kills backend 0, lets it fail, then
// restarts it — zero failed client requests end to end. Run under
// -race in CI.
func TestRouterChaosKillRestart(t *testing.T) {
	f := newFleet(t, 3, Config{BreakerCooldown: 50 * time.Millisecond})
	t.Cleanup(faultpoint.Reset)

	mix := queryMix()
	var wg sync.WaitGroup
	errs := make(chan string, 256)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := mix[(i*7+w)%len(mix)]
				resp, err := client.Get(f.frontend.URL + q)
				if err != nil {
					errs <- fmt.Sprintf("worker %d: %v", w, err)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("worker %d: %s -> %d", w, q, resp.StatusCode)
				}
			}
		}(w)
	}

	// The chaos schedule: kill backend 0, let the fleet absorb it, then
	// restart and let the breaker close again.
	time.Sleep(50 * time.Millisecond)
	faultpoint.Arm(fpForward+"."+f.backendName(0), faultpoint.Rule{Mode: faultpoint.ModeError})
	time.Sleep(150 * time.Millisecond)
	faultpoint.Reset()
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("failed client request: %s", e)
	}
	if st := f.router.Stats(); st.Proxied < 50 {
		t.Fatalf("only %d requests proxied; chaos window too small to mean anything", st.Proxied)
	}
}

// TestRouterRelaysShedResponse pins the admission-contract relay: when
// every backend sheds, the client sees the backend's own 429/503 with
// its Retry-After, not a synthetic router error.
func TestRouterRelaysShedResponse(t *testing.T) {
	var attempts int
	var mu sync.Mutex
	shed := func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		mu.Unlock()
		w.Header().Set("Retry-After", "2")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"query capacity exhausted"}`))
	}
	backends := []*httptest.Server{
		httptest.NewServer(http.HandlerFunc(shed)),
		httptest.NewServer(http.HandlerFunc(shed)),
	}
	defer backends[0].Close()
	defer backends[1].Close()
	router, err := New(Config{
		Backends:       []string{backends[0].URL, backends[1].URL},
		HealthInterval: -1,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/plan?n=3&f=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 relayed", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want the backend's own value", ra)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "query capacity exhausted") {
		t.Fatalf("body = %s, want the backend's shed payload", body)
	}
	// Both breakers now hold the Retry-After cooldown: the next request
	// within it still goes out (they are a last resort), but the
	// breakers report open.
	now := time.Now()
	for _, b := range router.backends {
		if !b.breaker.open(now) {
			t.Errorf("backend %s breaker closed; Retry-After not honored", b.name)
		}
	}
}

// TestRouterSingleAttemptForSideEffects pins the no-duplicates rule:
// a failing sweep submission is tried exactly once.
func TestRouterSingleAttemptForSideEffects(t *testing.T) {
	var posts int
	var mu sync.Mutex
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			mu.Lock()
			posts++
			mu.Unlock()
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer failing.Close()
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ok.Close()
	router, err := New(Config{
		Backends:       []string{failing.URL, ok.URL},
		HealthInterval: -1,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	// Find which backend the sweeps home key pins to; only a fleet
	// where the failing backend is home exercises the property, so pin
	// deterministically by asking the ring.
	home := router.ring.Owner("sweeps")
	failingName := strings.TrimPrefix(failing.URL, "http://")
	if home != failingName {
		// Swap roles: rebuild with only the failing backend so the home
		// is forced onto it.
		router.Close()
		front.Close()
		router, err = New(Config{
			Backends:       []string{failing.URL},
			HealthInterval: -1,
			Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer router.Close()
		front = httptest.NewServer(router.Handler())
		defer front.Close()
	}

	resp, err := http.Post(front.URL+"/v1/sweeps", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want the relayed 503", resp.StatusCode)
	}
	mu.Lock()
	defer mu.Unlock()
	if posts != 1 {
		t.Fatalf("failing sweep submission tried %d times, want exactly 1", posts)
	}
}

// TestRouterWarmTransfer pins the tentpole acceptance criterion: after
// a topology change, keys that moved to the joining backend are served
// from its warmed cache — hits, zero misses, zero builds on the
// serving path.
func TestRouterWarmTransfer(t *testing.T) {
	f := newFleet(t, 2, Config{WarmKeys: 64})

	// Warm the fleet through the router so each backend caches its
	// share of the mix.
	var planQueries []string
	for n := 2; n <= 9; n++ {
		for fc := 1; fc < n && fc <= 2; fc++ {
			planQueries = append(planQueries, fmt.Sprintf("/v1/plan?n=%d&f=%d", n, fc))
		}
	}
	for _, q := range planQueries {
		if code, body := f.get(t, q); code != http.StatusOK {
			t.Fatalf("%s: %d %s", q, code, body)
		}
	}

	// Join a third backend and reshape.
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	joiner := service.New(service.Config{Logger: quiet})
	joinerSrv := httptest.NewServer(joiner.Handler())
	t.Cleanup(func() { joinerSrv.Close(); joiner.Close() })
	urls := []string{f.backends[0].URL, f.backends[1].URL, joinerSrv.URL}
	if err := f.router.SetTopology(urls); err != nil {
		t.Fatalf("SetTopology: %v", err)
	}

	// The joiner now owns ~1/3 of the warmed keys; the warm transfer
	// must have pushed them.
	readJoiner := func() service.CacheStats {
		resp, err := http.Get(joinerSrv.URL + "/metrics")
		if err != nil {
			t.Fatalf("joiner metrics: %v", err)
		}
		defer resp.Body.Close()
		var snap struct {
			Cache service.CacheStats `json:"cache"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap.Cache
	}
	cs := readJoiner()
	if cs.Imports == 0 || cs.Warmed == 0 {
		t.Fatalf("joiner cache after transfer: imports=%d warmed=%d, want both > 0", cs.Imports, cs.Warmed)
	}
	st := f.router.Stats()
	if st.WarmRuns != 1 || st.WarmKeys == 0 || st.WarmErrors != 0 {
		t.Fatalf("router warm stats = runs %d, keys %d, errors %d", st.WarmRuns, st.WarmKeys, st.WarmErrors)
	}

	// Replay the full mix: the joiner serves its keys as pure hits.
	// Warmed builds happened at import time; the serving path must add
	// hits only.
	warmedBefore, missesBefore := cs.Warmed, cs.Misses
	for _, q := range planQueries {
		if code, body := f.get(t, q); code != http.StatusOK {
			t.Fatalf("%s after reshape: %d %s", q, code, body)
		}
	}
	cs = readJoiner()
	if cs.Misses != missesBefore {
		t.Errorf("joiner took %d cache misses serving transferred keys, want 0 (recompute on the serving path)",
			cs.Misses-missesBefore)
	}
	if cs.Warmed != warmedBefore {
		t.Errorf("joiner warmed %d more entries while serving; imports must not happen on the request path",
			cs.Warmed-warmedBefore)
	}
	if cs.Hits == 0 {
		t.Errorf("joiner served no hits; transferred keys were not routed to it")
	}
}

// TestRouterHealthQuorumVoting pins the detection rule: a backend is
// quarantined only after QuarantineVotes consecutive failed probes,
// and one healthy probe lifts the quarantine.
func TestRouterHealthQuorumVoting(t *testing.T) {
	var healthy = true
	var mu sync.Mutex
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ok := healthy
		mu.Unlock()
		if r.URL.Path == "/healthz" && !ok {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer flaky.Close()
	router, err := New(Config{
		Backends:        []string{flaky.URL},
		HealthInterval:  -1,
		QuarantineVotes: 3,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	name := strings.TrimPrefix(flaky.URL, "http://")
	b := router.backends[name]

	setHealthy := func(v bool) { mu.Lock(); healthy = v; mu.Unlock() }

	setHealthy(false)
	router.ProbeAll()
	router.ProbeAll()
	if b.down.Load() {
		t.Fatal("quarantined after 2 votes; quorum is 3")
	}
	router.ProbeAll()
	if !b.down.Load() {
		t.Fatal("not quarantined after 3 consecutive failed votes")
	}
	if b.quarantines.Load() != 1 {
		t.Fatalf("quarantine transitions = %d, want 1", b.quarantines.Load())
	}
	// A flap must not double-count transitions while already down.
	router.ProbeAll()
	if b.quarantines.Load() != 1 {
		t.Fatalf("extra failed probe while down recounted the transition")
	}
	setHealthy(true)
	router.ProbeAll()
	if b.down.Load() {
		t.Fatal("healthy probe did not lift the quarantine")
	}
	if b.votes.Load() != 0 {
		t.Fatal("healthy probe did not reset the vote count")
	}
}

// TestRouterSlowVote pins the histogram-fed rule: a backend whose mean
// proxied latency over a probe window exceeds SlowThreshold draws
// failed votes exactly like a dead one.
func TestRouterSlowVote(t *testing.T) {
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer fast.Close()
	router, err := New(Config{
		Backends:        []string{fast.URL},
		HealthInterval:  -1,
		QuarantineVotes: 2,
		SlowThreshold:   10 * time.Millisecond,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	name := strings.TrimPrefix(fast.URL, "http://")
	b := router.backends[name]

	// Feed the histogram the latencies the probe window will diff: the
	// proxied path observed a slow spell.
	b.hist.Observe(50 * time.Millisecond)
	b.hist.Observe(60 * time.Millisecond)
	router.ProbeAll() // vote 1: healthz ok, but mean 55ms > 10ms
	if b.down.Load() {
		t.Fatal("one slow vote quarantined; quorum is 2")
	}
	b.hist.Observe(40 * time.Millisecond)
	router.ProbeAll() // vote 2
	if !b.down.Load() {
		t.Fatal("two consecutive slow votes did not quarantine")
	}
	// A quiet window (no new observations) reads as healthy: dc == 0.
	router.ProbeAll()
	if b.down.Load() {
		t.Fatal("quiet window did not lift the slow quarantine")
	}
}

// TestRouterTopologyEndpoint drives PUT /admin/topology over HTTP.
func TestRouterTopologyEndpoint(t *testing.T) {
	f := newFleet(t, 2, Config{WarmKeys: -1})
	body := fmt.Sprintf(`{"backends": [%q]}`, f.backends[0].URL)
	req, _ := http.NewRequest(http.MethodPut, f.frontend.URL+"/admin/topology", strings.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topology update: %d", resp.StatusCode)
	}
	if got := f.router.Backends(); len(got) != 1 || got[0] != f.backendName(0) {
		t.Fatalf("Backends() = %v after shrink", got)
	}
	// Invalid payloads are rejected without touching the ring.
	req, _ = http.NewRequest(http.MethodPut, f.frontend.URL+"/admin/topology", strings.NewReader(`{"backends": []}`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty topology accepted: %d", resp.StatusCode)
	}
}

// TestRoutingPolicy pins the retry/pinning table.
func TestRoutingPolicy(t *testing.T) {
	cases := []struct {
		method, path  string
		wantKey       string // "" = any backend; "sweeps" = pinned; "plan" = key-hashed
		wantRetryable bool
	}{
		{"GET", "/v1/plan?n=3&f=1", "plan", true},
		{"GET", "/v1/searchtime?n=3&f=1&x=2", "plan", true},
		{"POST", "/v1/batch", "", true},
		{"POST", "/v1/sweeps", "sweeps", false},
		{"GET", "/v1/sweeps", "sweeps", true},
		{"DELETE", "/v1/sweeps/abc", "sweeps", false},
		{"GET", "/v1/cache/snapshot", "", true},
		{"PUT", "/v1/cache/snapshot", "", false},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(tc.method, tc.path, nil)
		key, retryable := routingPolicy(req)
		if retryable != tc.wantRetryable {
			t.Errorf("%s %s: retryable = %v, want %v", tc.method, tc.path, retryable, tc.wantRetryable)
		}
		switch tc.wantKey {
		case "sweeps":
			if key != "sweeps" {
				t.Errorf("%s %s: key = %q, want sweeps pin", tc.method, tc.path, key)
			}
		case "":
			if key != "" {
				t.Errorf("%s %s: key = %q, want any-backend", tc.method, tc.path, key)
			}
		case "plan":
			if key == "" || key == "sweeps" {
				t.Errorf("%s %s: key = %q, want a plan-key hash", tc.method, tc.path, key)
			}
		}
	}
	// The plan key normalizes exactly like the service cache: same key
	// for defaulted and explicit mindist, and for model=crash vs none.
	base := httptest.NewRequest("GET", "/v1/plan?n=3&f=1", nil)
	explicit := httptest.NewRequest("GET", "/v1/plan?n=3&f=1&mindist=1&model=crash", nil)
	k1, _ := routingPolicy(base)
	k2, _ := routingPolicy(explicit)
	if k1 != k2 {
		t.Errorf("defaulted and explicit plan params hash differently: %s vs %s", k1, k2)
	}
	timeline := httptest.NewRequest("GET", "/v1/timeline?n=3&f=1&x=2", nil)
	k3, _ := routingPolicy(timeline)
	if k3 != k1 {
		t.Errorf("timeline and plan for the same key hash differently; cache locality lost")
	}
}

// TestRingKeyMatchesBackendCacheKey: for every GET in the table the
// router's ring key is the hash of the key the backend caches the plan
// under, across the key's defaults (mindist omitted, 0 or explicit;
// model omitted, crash or byzantine) and votes. Invalid numbers still
// route deterministically; the backend answers those with a 400.
func TestRingKeyMatchesBackendCacheKey(t *testing.T) {
	svc := service.New(service.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	srv := httptest.NewServer(svc.Handler())
	defer svc.Close()
	defer srv.Close()
	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
		}
		if v != nil {
			if err := json.Unmarshal(body, v); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
	}
	for _, path := range []string{
		"/v1/plan?n=5&f=2",
		"/v1/plan?n=5&f=2&mindist=0",
		"/v1/plan?n=5&f=2&mindist=0.5",
		"/v1/plan?n=5&f=2&model=crash",
		"/v1/searchtime?n=5&f=2&x=3&model=crash&mindist=0",
		"/v1/plan?n=5&f=2&model=byzantine",
		"/v1/plan?n=5&f=1&model=byzantine&votes=2",
		"/v1/timeline?n=5&f=1&x=2&model=byzantine&votes=2&mindist=0.5",
		"/v1/searchtimes?n=5&f=2&xs=1,-2,3&strategy=doubling",
	} {
		getJSON(path, nil)
		var snap service.CacheSnapshot
		getJSON("/v1/cache/snapshot?limit=1", &snap)
		if len(snap.Entries) != 1 {
			t.Fatalf("%s: snapshot has %d entries, want the most recent one", path, len(snap.Entries))
		}
		cached := snap.Entries[0].Key
		if ring, _ := routingPolicy(httptest.NewRequest("GET", path, nil)); ring != cached.Hash() {
			t.Errorf("%s: ring key %.12s, backend caches under %v (%.12s)", path, ring, cached, cached.Hash())
		}
	}
	for _, path := range []string{
		"/v1/plan?n=5&f=2&mindist=NaN",
		"/v1/plan?n=5&f=2&mindist=Inf",
		"/v1/plan?n=abc&f=2",
	} {
		k1, _ := routingPolicy(httptest.NewRequest("GET", path, nil))
		k2, _ := routingPolicy(httptest.NewRequest("GET", path, nil))
		if k1 == "" || k1 != k2 {
			t.Errorf("%s: ring keys %q and %q, want one stable plan-key hash", path, k1, k2)
		}
	}
}

// TestRouterReplicaReadFanout pins the replica-read path: when a pure
// read's primary owner is unavailable (quarantined or breaker-open),
// the router fans the request out to the key's owner pair and relays
// the first good answer — byte-identical to a healthy single process,
// because plan construction is deterministic on every owner.
func TestRouterReplicaReadFanout(t *testing.T) {
	defer faultpoint.Reset()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	single := service.New(service.Config{Logger: quiet})
	defer single.Close()
	ref := httptest.NewServer(single.Handler())
	defer ref.Close()

	f := newFleet(t, 3, Config{})
	defer f.close()

	queries := []string{
		"/v1/searchtime?n=3&f=1&x=4.5",
		"/v1/searchtimes?n=4&f=2&xs=1.5,2.5,9",
		"/v1/searchtime?n=5&f=2&x=12&k=2",
	}
	for _, q := range queries {
		req := httptest.NewRequest("GET", q, nil)
		key, _ := routingPolicy(req)
		f.router.mu.RLock()
		primary := f.router.ring.Owner(key)
		b := f.router.backends[primary]
		f.router.mu.RUnlock()

		// Quarantine the primary and kill its link so only the second
		// owner can answer.
		b.down.Store(true)
		faultpoint.Arm(fpForward+"."+primary, faultpoint.Rule{})

		before := f.router.replicaReads.Load()
		code, got := f.get(t, q)
		faultpoint.Reset()
		b.down.Store(false)

		want, err := http.Get(ref.URL + q)
		if err != nil {
			t.Fatalf("reference GET %s: %v", q, err)
		}
		wantBody, _ := io.ReadAll(want.Body)
		want.Body.Close()
		if code != want.StatusCode {
			t.Fatalf("%s: status %d via fanout, %d direct", q, code, want.StatusCode)
		}
		if !bytes.Equal(got, wantBody) {
			t.Errorf("%s: fanout body differs from single-process\nfanout: %s\ndirect: %s", q, got, wantBody)
		}
		if f.router.replicaReads.Load() == before {
			t.Errorf("%s: replica fan-out never engaged", q)
		}
	}
}

// TestRouterReplicaReadStaysOff proves the fan-out is reserved for
// degraded primaries: with every backend healthy, the whole query mix
// takes the sequential path and the fanout counter stays zero.
func TestRouterReplicaReadStaysOff(t *testing.T) {
	f := newFleet(t, 3, Config{})
	defer f.close()
	for _, q := range queryMix() {
		f.get(t, q)
	}
	if n := f.router.replicaReads.Load(); n != 0 {
		t.Fatalf("replica fan-out engaged %d times on a healthy fleet", n)
	}
	// Mutating methods never fan out, even with the primary down.
	req := httptest.NewRequest("DELETE", "/v1/sweeps/nope", nil)
	if replicaReadable(req) {
		t.Fatal("a DELETE is never replica-readable")
	}
}

// TestReadBody covers the relay read: a declared length is read
// exactly, a body without one is read to EOF, a short body is an error
// (the router fails over), and a HEAD answer's declared length is not
// waited for.
func TestReadBody(t *testing.T) {
	resp := func(body string, length int64) *http.Response {
		return &http.Response{Body: io.NopCloser(strings.NewReader(body)), ContentLength: length}
	}
	for _, tc := range []struct {
		name, body, method string
		length             int64
		want               string
		wantErr            bool
	}{
		{"declared", `{"n":3}`, http.MethodGet, 7, `{"n":3}`, false},
		{"empty", "", http.MethodGet, 0, "", false},
		{"unknown length", `{"n":3}`, http.MethodPost, -1, `{"n":3}`, false},
		{"short body", `{"n"`, http.MethodGet, 7, "", true},
		{"head", "", http.MethodHead, 7, "", false},
		{"declared over the limit", `{"n":3}`, http.MethodGet, maxResponseBody + 1, "", true},
	} {
		got, buf, err := readBody(resp(tc.body, tc.length), tc.method)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
			continue
		}
		if !tc.wantErr && string(got) != tc.want {
			t.Errorf("%s: body %q, want %q", tc.name, got, tc.want)
		}
		relayBufs.Put(buf)
	}
}

// TestRouterRejectsOversizedBody pins the relay limit: a backend answer
// over maxResponseBody, whether its length is declared or it arrives
// chunked, reaches the client as a 502 naming the limit, never as a
// truncated 200. Every backend would send the same bytes, so the router
// neither fails over nor charges the breaker.
func TestRouterRejectsOversizedBody(t *testing.T) {
	chunk := bytes.Repeat([]byte("x"), 1<<20)
	for _, framing := range []string{"declared", "chunked"} {
		t.Run(framing, func(t *testing.T) {
			var calls atomic.Int64
			huge := func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				w.Header().Set("Content-Type", "application/json")
				if framing == "declared" {
					w.Header().Set("Content-Length", fmt.Sprint(maxResponseBody+10))
				} else {
					w.(http.Flusher).Flush() // commits the answer to chunked framing
				}
				for sent := 0; sent < maxResponseBody; sent += len(chunk) {
					if _, err := w.Write(chunk); err != nil {
						return
					}
				}
				w.Write([]byte("0123456789"))
			}
			var urls []string
			for i := 0; i < 2; i++ {
				srv := httptest.NewServer(http.HandlerFunc(huge))
				t.Cleanup(srv.Close)
				urls = append(urls, srv.URL)
			}
			router, err := New(Config{
				Backends:       urls,
				HealthInterval: -1,
				Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(router.Close)
			front := httptest.NewServer(router.Handler())
			t.Cleanup(front.Close)

			resp, err := http.Get(front.URL + "/v1/plan?n=200001&f=100000")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadGateway {
				t.Errorf("status %d (%d body bytes), want 502", resp.StatusCode, len(body))
			}
			if limit := fmt.Sprint(maxResponseBody); !strings.Contains(string(body), limit) {
				t.Errorf("body %.200q does not name the limit %s", body, limit)
			}
			if n := calls.Load(); n != 1 {
				t.Errorf("%d backend calls, want 1 (no failover)", n)
			}
			for _, b := range router.backends {
				if n := b.failures.Load(); n != 0 {
					t.Errorf("backend %s charged %d failures", b.name, n)
				}
			}
		})
	}
}
