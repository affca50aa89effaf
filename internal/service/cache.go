package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"linesearch"
	"linesearch/internal/faultpoint"
	"linesearch/internal/telemetry"
)

// PlanKey identifies a constructed search plan: everything that goes
// into building a Searcher. Strategy is the resolved name ("" means the
// paper's recommendation for the pair). Model is the fault model (""
// means crash) and Votes the explicit Byzantine vote threshold (0 means
// the default f+1).
// PlanKey also travels on the wire inside cache snapshots, so its
// encoding is tagged and stable; Hash derives from the same encoding.
type PlanKey struct {
	N        int     `json:"n"`
	F        int     `json:"f"`
	Strategy string  `json:"strategy,omitempty"`
	MinDist  float64 `json:"mindist"`
	Model    string  `json:"model,omitempty"`
	Votes    int     `json:"votes,omitempty"`
}

// String formats the key for logs and errors.
func (k PlanKey) String() string {
	st := k.Strategy
	if st == "" {
		st = "auto"
	}
	s := fmt.Sprintf("n=%d f=%d strategy=%s mindist=%g", k.N, k.F, st, k.MinDist)
	if k.Model != "" {
		s += " model=" + k.Model
	}
	if k.Votes != 0 {
		s += fmt.Sprintf(" votes=%d", k.Votes)
	}
	return s
}

// Hash returns the content hash of the key: the hex SHA-256 of its
// canonical JSON encoding. It is the sharding key — the router's
// consistent-hash ring places every plan by this value, so the same
// tuple always lands on the same backend regardless of which process
// computes the hash.
func (k PlanKey) Hash() string {
	blob, err := json.Marshal(k)
	if err != nil {
		// PlanKey is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("service: marshal plan key: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// Plan is a cached value: the immutable Searcher plus its worst-case
// competitive ratio, computed once at build time because strategies
// without a closed form (the uniform ablation) measure it empirically.
type Plan struct {
	Searcher *linesearch.Searcher
	CR       float64
}

// BuildFunc constructs the plan for a key. The default builder calls
// linesearch.NewSearcher; tests substitute instrumented builders.
type BuildFunc func(PlanKey) (*Plan, error)

// defaultBuild is the production builder.
func defaultBuild(k PlanKey) (*Plan, error) {
	if err := faultpoint.Hit(fpServiceBuild); err != nil {
		return nil, err
	}
	opts := []linesearch.Option{linesearch.WithMinDistance(k.MinDist)}
	if k.Strategy != "" {
		opts = append(opts, linesearch.WithStrategy(k.Strategy))
	}
	if k.Model != "" {
		opts = append(opts, linesearch.WithFaultModel(k.Model))
	}
	if k.Votes != 0 {
		opts = append(opts, linesearch.WithVotes(k.Votes))
	}
	s, err := linesearch.NewSearcher(k.N, k.F, opts...)
	if err != nil {
		return nil, err
	}
	// Stochastic plans (the pfaulty family) have no finite worst-case
	// ratio by design; their figure of merit is the asymptotic expected
	// ratio, which is finite exactly when the tuned growth converges.
	cr, ok := s.ExpectedCompetitiveRatio()
	if !ok {
		var err error
		if cr, err = s.CompetitiveRatio(); err != nil {
			return nil, err
		}
	}
	if math.IsNaN(cr) || math.IsInf(cr, 0) {
		return nil, fmt.Errorf("plan %v has unbounded competitive ratio", k)
	}
	return &Plan{Searcher: s, CR: cr}, nil
}

// CacheStats is a point-in-time snapshot of cache effectiveness
// counters, exported on /metrics.
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	InflightWaits int64 `json:"inflight_waits"`
	// Imports counts accepted snapshot imports; Warmed counts plans
	// built off the serving path by those imports (entries already
	// cached or in flight are skipped, not rebuilt).
	Imports  int64 `json:"imports"`
	Warmed   int64 `json:"warmed"`
	Size     int   `json:"size"`
	Capacity int   `json:"capacity"`
}

// PlanCache is a concurrency-safe LRU cache of constructed Searchers
// with in-flight deduplication: concurrent requests for the same cold
// key build the plan exactly once, the rest wait for that build.
// Build errors are returned to every waiter but never cached, so a
// transient failure does not poison the key.
type PlanCache struct {
	build BuildFunc

	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[PlanKey]*list.Element
	inflight map[PlanKey]*inflightBuild

	hits, misses, evictions, waits atomic.Int64
	imports, warmed                atomic.Int64
}

// cacheEntry is the list payload: key (for eviction) plus value.
type cacheEntry struct {
	key  PlanKey
	plan *Plan
}

// inflightBuild tracks one in-progress plan construction.
type inflightBuild struct {
	done chan struct{}
	plan *Plan
	err  error
}

// NewPlanCache returns an LRU cache holding up to capacity plans
// (capacity < 1 is clamped to 1). A nil build uses the production
// builder.
func NewPlanCache(capacity int, build BuildFunc) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	if build == nil {
		build = defaultBuild
	}
	return &PlanCache{
		build:    build,
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[PlanKey]*list.Element),
		inflight: make(map[PlanKey]*inflightBuild),
	}
}

// GetCtx returns the plan for key, building and caching it on a miss.
// Safe for concurrent use. When ctx carries a sampled trace, a cache
// miss records a "plan.build" stage span around the expensive
// construction (in-flight waiters record "plan.build.wait" instead).
// hit reports whether the plan came straight from the cache, so
// callers can annotate their own spans.
func (c *PlanCache) GetCtx(ctx context.Context, key PlanKey) (plan *Plan, hit bool, err error) {
	c.mu.Lock()
	if elem, ok := c.items[key]; ok {
		c.ll.MoveToFront(elem)
		c.mu.Unlock()
		c.hits.Add(1)
		return elem.Value.(*cacheEntry).plan, true, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.waits.Add(1)
		_, span := telemetry.StartSpan(ctx, "plan.build.wait")
		<-call.done
		span.End()
		return call.plan, false, call.err
	}
	call := &inflightBuild{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()
	c.misses.Add(1)

	_, span := telemetry.StartSpan(ctx, "plan.build")
	span.SetStr("plan", key.String())
	call.plan, call.err = c.build(key)
	if call.err != nil {
		span.SetStr("error", call.err.Error())
	}
	span.End()

	c.mu.Lock()
	delete(c.inflight, key)
	if call.err == nil {
		c.insertLocked(key, call.plan)
	}
	c.mu.Unlock()
	close(call.done)
	return call.plan, false, call.err
}

// insertLocked adds a built plan, evicting the least recently used
// entry when full. Callers hold c.mu.
func (c *PlanCache) insertLocked(key PlanKey, plan *Plan) {
	if elem, ok := c.items[key]; ok {
		// A racing builder for the same key already inserted; refresh.
		c.ll.MoveToFront(elem)
		elem.Value.(*cacheEntry).plan = plan
		return
	}
	for c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, plan: plan})
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	size := c.ll.Len()
	capacity := c.capacity
	c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		InflightWaits: c.waits.Load(),
		Imports:       c.imports.Load(),
		Warmed:        c.warmed.Load(),
		Size:          size,
		Capacity:      capacity,
	}
}

// Warm ensures key is cached, building it off the serving path when
// absent: a warm-transfer import, not client traffic, so it counts as
// warmed rather than a miss. It reports whether this call built the
// plan (false when the entry was already cached, or another builder —
// a concurrent request or import — got there first).
func (c *PlanCache) Warm(ctx context.Context, key PlanKey) (built bool, err error) {
	c.mu.Lock()
	if _, ok := c.items[key]; ok {
		c.mu.Unlock()
		return false, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-call.done
		return false, call.err
	}
	call := &inflightBuild{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()
	c.warmed.Add(1)

	_, span := telemetry.StartSpan(ctx, "plan.warm")
	span.SetStr("plan", key.String())
	call.plan, call.err = c.build(key)
	if call.err != nil {
		span.SetStr("error", call.err.Error())
	}
	span.End()

	c.mu.Lock()
	delete(c.inflight, key)
	if call.err == nil {
		c.insertLocked(key, call.plan)
	}
	c.mu.Unlock()
	close(call.done)
	return call.err == nil, call.err
}
