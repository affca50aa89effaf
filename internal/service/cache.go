package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
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
// canonical JSON encoding, the bytes json.Marshal writes for it. It is
// the sharding key — the router's consistent-hash ring places every
// plan by this value, so the same tuple always lands on the same
// backend regardless of which process computes the hash. (A non-finite
// MinDist, which json.Marshal refuses and no cache key holds, is
// written as null.)
func (k PlanKey) Hash() string {
	var arr [128]byte
	b := append(arr[:0], `{"n":`...)
	b = strconv.AppendInt(b, int64(k.N), 10)
	b = append(b, `,"f":`...)
	b = strconv.AppendInt(b, int64(k.F), 10)
	if k.Strategy != "" {
		b = append(b, `,"strategy":`...)
		b = appendString(b, k.Strategy)
	}
	b = append(b, `,"mindist":`...)
	b = appendFloat(b, k.MinDist)
	if k.Model != "" {
		b = append(b, `,"model":`...)
		b = appendString(b, k.Model)
	}
	if k.Votes != 0 {
		b = append(b, `,"votes":`...)
		b = strconv.AppendInt(b, int64(k.Votes), 10)
	}
	sum := sha256.Sum256(append(b, '}'))
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
	// buildSlots holds one token per running build; see claim.
	buildSlots chan struct{}

	hits, misses, evictions, waits atomic.Int64
	imports, warmed                atomic.Int64
}

// cacheEntry is the list payload: key (for eviction) plus value.
// body is the encoded default-horizon /v1/plan answer for the entry,
// stored on its first cache hit rather than by the miss that built it:
// a cold workload asks most keys once, and encoding on the build would
// only grow the heap for them.
type cacheEntry struct {
	key  PlanKey
	plan *Plan
	body atomic.Pointer[[]byte]
	// bodyLen is the length of the default-horizon plan answer a miss
	// wrote, which the first hit's buffer grows to before it stores
	// body.
	bodyLen atomic.Int64
}

// inflightBuild tracks one in-progress plan construction. entry is
// set when the build succeeds; panicked holds a recovered build panic.
type inflightBuild struct {
	done     chan struct{}
	entry    *cacheEntry
	err      error
	panicked any
}

// result returns a finished build's outcome. A build panic is re-raised
// on the caller's goroutine, where the handler's recovery answers it.
func (b *inflightBuild) result() (*cacheEntry, error) {
	if b.panicked != nil {
		panic(b.panicked)
	}
	return b.entry, b.err
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
		build:      build,
		capacity:   capacity,
		ll:         list.New(),
		items:      make(map[PlanKey]*list.Element),
		inflight:   make(map[PlanKey]*inflightBuild),
		buildSlots: make(chan struct{}, maxConcurrentBuilds),
	}
}

// get returns the cache entry for key, building and caching the plan
// on a miss. Safe for concurrent use. hit reports whether the entry
// came straight from the cache, so callers can annotate their own
// spans.
//
// Waiting honours ctx: a miss claims a build slot and starts the build
// on its own goroutine, an in-flight waiter joins it, and either
// returns ctx's error if ctx ends first. The build itself always runs
// to completion and is cached, so the next request for the key hits.
// When ctx carries a sampled trace, a miss records a "plan.build" stage
// span around the construction (in-flight waiters record
// "plan.build.wait" instead).
func (c *PlanCache) get(ctx context.Context, key PlanKey) (e *cacheEntry, hit bool, err error) {
	e, call, fresh, err := c.claim(ctx, key, true)
	switch {
	case err != nil:
		return nil, false, err
	case e != nil:
		c.hits.Add(1)
		return e, true, nil
	case fresh:
		c.misses.Add(1)
		_, span := telemetry.StartSpan(ctx, "plan.build")
		go c.fill(key, call, span)
	default:
		c.waits.Add(1)
		_, span := telemetry.StartSpan(ctx, "plan.build.wait")
		defer span.End()
	}
	select {
	case <-call.done:
		e, err = call.result()
		return e, false, err
	case <-ctx.Done():
		return nil, false, fmt.Errorf("wait for plan %v: %w", key, ctx.Err())
	}
}

// claim looks key up and returns its cached entry, or else the
// in-flight build to join, or else a newly registered build (fresh)
// that holds a build slot and that the caller must fill. touch moves a
// cached entry to the front of the LRU order.
//
// A build outlives a requester that stops waiting for it, so the slots
// rather than admission control bound how many builds run at once.
// When every slot is taken, claim waits for one until ctx ends, then
// looks again: the key may have been built or started meanwhile.
func (c *PlanCache) claim(ctx context.Context, key PlanKey, touch bool) (e *cacheEntry, call *inflightBuild, fresh bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot := false
	for {
		if elem, ok := c.items[key]; ok {
			if touch {
				c.ll.MoveToFront(elem)
			}
			e = elem.Value.(*cacheEntry)
		} else {
			call = c.inflight[key]
		}
		if e != nil || call != nil {
			if slot {
				<-c.buildSlots
			}
			return e, call, false, nil
		}
		if !slot {
			select {
			case c.buildSlots <- struct{}{}:
				slot = true
			default:
			}
		}
		if slot {
			break
		}
		c.mu.Unlock()
		select {
		case c.buildSlots <- struct{}{}:
			slot = true
		case <-ctx.Done():
			err = fmt.Errorf("wait for a build slot for plan %v: %w", key, ctx.Err())
		}
		c.mu.Lock()
		if err != nil {
			return nil, nil, false, err
		}
	}
	call = &inflightBuild{done: make(chan struct{})}
	c.inflight[key] = call
	return nil, call, true, nil
}

// fill builds the plan for a build registered by claim, gives back its
// build slot, caches the plan on success and releases the call's
// waiters. It annotates and ends span.
func (c *PlanCache) fill(key PlanKey, call *inflightBuild, span *telemetry.Span) {
	span.SetStr("plan", key.String())
	plan, panicked, err := c.buildSafely(key)
	<-c.buildSlots
	switch {
	case panicked != nil:
		span.SetStr("error", fmt.Sprint("panic: ", panicked))
	case err != nil:
		span.SetStr("error", err.Error())
	}
	span.End()

	c.mu.Lock()
	delete(c.inflight, key)
	if panicked == nil && err == nil {
		call.entry = c.insertLocked(key, plan)
	}
	call.err, call.panicked = err, panicked
	c.mu.Unlock()
	close(call.done)
}

// buildSafely runs the builder, returning a panic as a value so that a
// failed build still releases its waiters.
func (c *PlanCache) buildSafely(key PlanKey) (plan *Plan, panicked any, err error) {
	defer func() { panicked = recover() }()
	plan, err = c.build(key)
	return plan, nil, err
}

// insertLocked adds a built plan, evicting the least recently used
// entry when full, and returns its entry. Callers hold c.mu and have
// registered the build in c.inflight, so no other entry for key exists.
func (c *PlanCache) insertLocked(key PlanKey, plan *Plan) *cacheEntry {
	for c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
	e := &cacheEntry{key: key, plan: plan}
	c.items[key] = c.ll.PushFront(e)
	return e
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
	e, call, fresh, err := c.claim(ctx, key, false)
	switch {
	case err != nil:
		return false, err
	case e != nil:
		return false, nil
	case !fresh:
		<-call.done
		_, err := call.result()
		return false, err
	}
	c.warmed.Add(1)

	_, span := telemetry.StartSpan(ctx, "plan.warm")
	c.fill(key, call, span)
	_, err = call.result()
	return err == nil, err
}
