package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"linesearch"
)

// countingBuild wraps the production builder and counts constructions.
func countingBuild(count *atomic.Int64) BuildFunc {
	return func(k PlanKey) (*Plan, error) {
		count.Add(1)
		return defaultBuild(k)
	}
}

func key(n, f int) PlanKey { return PlanKey{N: n, F: f, MinDist: 1} }

func TestCacheHitAndMiss(t *testing.T) {
	var builds atomic.Int64
	c := NewPlanCache(4, countingBuild(&builds))

	p1, err := c.Get(key(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Get(key(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("second Get did not return the cached plan")
	}
	if builds.Load() != 1 {
		t.Errorf("builds = %d, want 1", builds.Load())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("stats = %+v", st)
	}
	if p1.Searcher.N() != 3 || p1.CR == 0 {
		t.Errorf("cached plan looks wrong: n=%d cr=%g", p1.Searcher.N(), p1.CR)
	}
}

func TestCacheKeyIncludesEverything(t *testing.T) {
	var builds atomic.Int64
	c := NewPlanCache(8, countingBuild(&builds))
	keys := []PlanKey{
		{N: 3, F: 1, MinDist: 1},
		{N: 5, F: 2, MinDist: 1},
		{N: 3, F: 1, MinDist: 2},
		{N: 3, F: 1, Strategy: "doubling", MinDist: 1},
	}
	for _, k := range keys {
		if _, err := c.Get(k); err != nil {
			t.Fatalf("Get(%v): %v", k, err)
		}
	}
	if builds.Load() != int64(len(keys)) {
		t.Errorf("builds = %d, want %d distinct keys", builds.Load(), len(keys))
	}
}

func TestCacheLRUEviction(t *testing.T) {
	var builds atomic.Int64
	c := NewPlanCache(2, countingBuild(&builds))

	for _, f := range []int{1, 2, 3} { // n=5: three distinct valid keys
		if _, err := c.Get(key(5, f)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Errorf("after overflow: %+v", st)
	}
	// key(5,1) was evicted (least recently used) and must rebuild.
	if _, err := c.Get(key(5, 1)); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 4 {
		t.Errorf("builds = %d, want 4 (3 cold + 1 re-build after eviction)", builds.Load())
	}
	// key(5,3) stayed hot the whole time.
	before := builds.Load()
	if _, err := c.Get(key(5, 3)); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != before {
		t.Error("recently used key was evicted")
	}
}

func TestCacheLRUTouchOnGet(t *testing.T) {
	c := NewPlanCache(2, nil)
	if _, err := c.Get(key(5, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(key(5, 2)); err != nil {
		t.Fatal(err)
	}
	// Touch 5,1 so 5,2 becomes the eviction victim.
	if _, err := c.Get(key(5, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(key(5, 3)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if _, err := c.Get(key(5, 1)); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Hits; got != st.Hits+1 {
		t.Error("touched key was evicted instead of the stale one")
	}
}

func TestCacheBuildErrorsNotCached(t *testing.T) {
	fail := true
	var builds int
	c := NewPlanCache(4, func(k PlanKey) (*Plan, error) {
		builds++
		if fail {
			return nil, errors.New("transient")
		}
		return defaultBuild(k)
	})
	if _, err := c.Get(key(3, 1)); err == nil {
		t.Fatal("error not propagated")
	}
	fail = false
	if _, err := c.Get(key(3, 1)); err != nil {
		t.Fatalf("error was cached: %v", err)
	}
	if builds != 2 {
		t.Errorf("builds = %d, want 2", builds)
	}
	if st := c.Stats(); st.Misses != 2 || st.Size != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheInvalidKeyError(t *testing.T) {
	c := NewPlanCache(4, nil)
	if _, err := c.Get(PlanKey{N: 2, F: 2, MinDist: 1}); err == nil {
		t.Error("hopeless pair accepted")
	}
	if _, err := c.Get(PlanKey{N: 3, F: 1, Strategy: "bogus", MinDist: 1}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if st := c.Stats(); st.Size != 0 {
		t.Errorf("failed builds were cached: %+v", st)
	}
}

// TestCacheInflightDedup: a thundering herd on one cold key builds the
// plan exactly once; everyone gets the same value.
func TestCacheInflightDedup(t *testing.T) {
	var builds atomic.Int64
	release := make(chan struct{})
	c := NewPlanCache(4, func(k PlanKey) (*Plan, error) {
		builds.Add(1)
		<-release // hold the build so the herd piles up
		return defaultBuild(k)
	})

	const herd = 32
	plans := make([]*linesearch.Searcher, herd)
	var wg sync.WaitGroup
	wg.Add(herd)
	for i := 0; i < herd; i++ {
		go func(i int) {
			defer wg.Done()
			p, err := c.Get(key(3, 1))
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p.Searcher
		}(i)
	}
	// Let the herd arrive, then release the single build.
	for c.Stats().InflightWaits < herd-1 {
		// The first goroutine holds the build; eventually every other
		// one is parked on it.
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want exactly 1", builds.Load())
	}
	for i := 1; i < herd; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("goroutine %d got a different plan", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.InflightWaits != herd-1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCacheInflightDedupBuildError: a thundering herd on a cold key
// whose build fails gets exactly one build, every waiter receives the
// error, nothing is cached (the error does not poison the key), and
// the next Get rebuilds.
func TestCacheInflightDedupBuildError(t *testing.T) {
	var builds atomic.Int64
	release := make(chan struct{})
	boom := errors.New("transient backend failure")
	c := NewPlanCache(4, func(k PlanKey) (*Plan, error) {
		builds.Add(1)
		if builds.Load() == 1 {
			<-release // hold the failing build so the herd piles up
			return nil, boom
		}
		return defaultBuild(k)
	})

	const herd = 16
	errs := make([]error, herd)
	var wg sync.WaitGroup
	wg.Add(herd)
	for i := 0; i < herd; i++ {
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Get(key(3, 1))
		}(i)
	}
	for c.Stats().InflightWaits < herd-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want exactly 1", builds.Load())
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("goroutine %d got %v, want the build error", i, err)
		}
	}
	if st := c.Stats(); st.Size != 0 {
		t.Fatalf("failed build was cached: size %d", st.Size)
	}
	// The key is not poisoned: the next Get rebuilds and succeeds.
	if _, err := c.Get(key(3, 1)); err != nil {
		t.Fatalf("rebuild after failure: %v", err)
	}
	if builds.Load() != 2 {
		t.Errorf("builds = %d after retry, want 2", builds.Load())
	}
	if st := c.Stats(); st.Size != 1 {
		t.Errorf("size = %d after successful rebuild, want 1", st.Size)
	}
}

// TestCacheBoundsAbandonedBuilds: a build outlives the requester that
// gave up on it, so misses for distinct keys whose requesters all time
// out must still never run more than maxConcurrentBuilds builds at
// once. Misses beyond the bound fail at their deadline without
// starting a build, and a finished build frees its slot.
func TestCacheBoundsAbandonedBuilds(t *testing.T) {
	var running, peak, builds atomic.Int64
	release := make(chan struct{})
	c := NewPlanCache(2*maxConcurrentBuilds, func(k PlanKey) (*Plan, error) {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		builds.Add(1)
		<-release
		running.Add(-1)
		return &Plan{}, nil
	})
	getWithin := func(k PlanKey, d time.Duration) error {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		_, _, err := c.get(ctx, k)
		return err
	}

	const misses = maxConcurrentBuilds + 32
	var wg sync.WaitGroup
	wg.Add(misses)
	for i := 0; i < misses; i++ {
		go func(i int) {
			defer wg.Done()
			k := PlanKey{N: 3, F: 1, MinDist: float64(i + 1)}
			if err := getWithin(k, 20*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("miss %d: err %v, want its deadline", i, err)
			}
		}(i)
	}
	wg.Wait()
	for deadline := time.Now().Add(10 * time.Second); running.Load() < maxConcurrentBuilds; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d builds running, want %d", running.Load(), maxConcurrentBuilds)
		}
	}
	if st := c.Stats(); st.Misses != maxConcurrentBuilds {
		t.Errorf("misses = %d, want one per build slot (%d)", st.Misses, maxConcurrentBuilds)
	}

	close(release)
	for deadline := time.Now().Add(10 * time.Second); c.Stats().Size < maxConcurrentBuilds; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("size %d, want every abandoned build cached", c.Stats().Size)
		}
	}
	if err := getWithin(PlanKey{N: 3, F: 1, MinDist: misses + 1}, 10*time.Second); err != nil {
		t.Errorf("a miss after the builds finished: %v", err)
	}
	if p := peak.Load(); p != maxConcurrentBuilds {
		t.Errorf("peak concurrent builds = %d, want %d", p, maxConcurrentBuilds)
	}
	if b := builds.Load(); b != maxConcurrentBuilds+1 {
		t.Errorf("%d builds, want %d", b, maxConcurrentBuilds+1)
	}
}

// Get is get without a trace or deadline, for tests that only need
// the plan.
func (c *PlanCache) Get(key PlanKey) (*Plan, error) {
	e, _, err := c.get(context.Background(), key)
	if err != nil {
		return nil, err
	}
	return e.plan, nil
}

// TestPlanBodyStoredOnFirstHit: the encoded default-horizon /v1/plan
// answer is kept on the cache entry from its first hit on (a miss
// stores nothing, so keys asked once cost no body), an explicit other
// horizon never stores it, and every answer is the same bytes.
func TestPlanBodyStoredOnFirstHit(t *testing.T) {
	svc := newTestService(t, Config{})
	h := svc.Handler()
	entry := func() *cacheEntry {
		t.Helper()
		e, _, err := svc.cache.get(context.Background(), PlanKey{N: 3, F: 1, MinDist: 1})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	body := func() []byte {
		t.Helper()
		if b := entry().body.Load(); b != nil {
			return *b
		}
		return nil
	}
	get := func(target string) string {
		t.Helper()
		r := httptest.NewRequest("GET", target, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", target, w.Code, w.Body.String())
		}
		return w.Body.String()
	}

	first := get("/v1/plan?n=3&f=1")
	if b := body(); b != nil {
		t.Fatalf("the miss stored a body: %s", b)
	}
	get("/v1/plan?n=3&f=1&horizon=20")
	if b := body(); b != nil {
		t.Fatalf("an explicit horizon stored a body: %s", b)
	}
	// The miss recorded its answer's length (without the newline) for
	// the first hit's buffer; the explicit horizon left it alone.
	if got, want := entry().bodyLen.Load(), int64(len(first)-1); got != want {
		t.Errorf("recorded answer length %d, want the miss's %d", got, want)
	}
	second := get("/v1/plan?n=3&f=1")
	stored := body()
	if stored == nil {
		t.Fatal("the first default-horizon hit stored no body")
	}
	third := get("/v1/plan?n=3&f=1&horizon=50")
	if second != first || third != first || string(stored)+"\n" != first {
		t.Errorf("answers differ:\nmiss   %s\nhit    %s\nstored %s\nexplicit default %s", first, second, stored, third)
	}
}

// TestPlanBodyConcurrentFirstHits: after a miss, a herd of GETs and
// batch items asks for the same default-horizon plan at once, so many
// first hits write the answer and store it on the entry while others
// read the stored bytes. Every answer must be the miss's bytes.
func TestPlanBodyConcurrentFirstHits(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	const target = "/v1/plan?n=41&f=21"
	miss := doRaw(h, "GET", target)
	if miss.Code != http.StatusOK {
		t.Fatalf("miss: %d %s", miss.Code, miss.Body)
	}
	want := miss.Body.String()
	wantItem := `{"results":[{"ok":true,"result":` + strings.TrimSuffix(want, "\n") + `}],"errors":0}` + "\n"
	const herd = 32
	var wg sync.WaitGroup
	errs := make(chan error, herd)
	for i := range herd {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				if w := doRaw(h, "GET", target); w.Code != http.StatusOK || w.Body.String() != want {
					errs <- fmt.Errorf("GET %d: %d %.200s", i, w.Code, w.Body)
				}
				return
			}
			if w := postBatch(h, `{"queries":[{"op":"plan","n":41,"f":21}]}`); w.Code != http.StatusOK || w.Body.String() != wantItem {
				errs <- fmt.Errorf("batch %d: %d %.200s", i, w.Code, w.Body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBuildPanicIs500: a panicking build runs off the request
// goroutine, so its panic is handed back and re-raised there; the
// handler's recovery answers 500, the in-flight slot is released and
// the key is not poisoned.
func TestBuildPanicIs500(t *testing.T) {
	var builds atomic.Int64
	svc := newTestService(t, Config{Build: func(k PlanKey) (*Plan, error) {
		if builds.Add(1) == 1 {
			panic("boom")
		}
		return defaultBuild(k)
	}})
	h := svc.Handler()
	if code, body := doReq(t, h, "GET", "/v1/plan?n=3&f=1", ""); code != http.StatusInternalServerError {
		t.Fatalf("panicking build: status %d, body %v", code, body)
	}
	if code, body := doReq(t, h, "GET", "/v1/plan?n=3&f=1", ""); code != http.StatusOK {
		t.Fatalf("rebuild after the panic: status %d, body %v", code, body)
	}
	if b := builds.Load(); b != 2 {
		t.Errorf("%d builds, want 2", b)
	}
}
