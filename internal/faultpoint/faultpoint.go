// Package faultpoint is a deterministic, seedable fault-injection
// framework: named fault points compiled into state-bearing code paths
// (cell evaluation, checkpoint I/O, service handlers) that tests and
// chaos suites arm with error, latency or panic rules. The design
// mirrors the paper's fault model — components fail silently and the
// system around them must still produce a correct answer or fail
// loudly — and lets the resilience layer prove it does.
//
// A disarmed registry costs one atomic load per Hit: no locks, no map
// lookups, no allocations, so production binaries keep the points
// compiled in. Arming any point switches the registry to the
// instrumented slow path; when every count-limited rule exhausts
// itself the fast path is restored automatically.
//
// Firing is reproducible for a given seed and call order: probability
// rules draw from one seeded PRNG, so a single-goroutine caller replays
// a schedule exactly, and concurrent callers replay the same
// distribution (the interleaving, as in any real system, is theirs).
package faultpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects what an armed point does when its rule fires.
type Mode int

const (
	// ModeError makes Hit return an error (Rule.Err, or a default
	// transient injected error when nil).
	ModeError Mode = iota
	// ModeLatency makes Hit sleep for Rule.Delay and return nil.
	ModeLatency
	// ModePanic makes Hit panic, exercising recover paths.
	ModePanic
)

// String names the mode for logs and stats.
func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeLatency:
		return "latency"
	case ModePanic:
		return "panic"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Rule describes when and how an armed point fires. The zero value
// fires a transient injected error on every hit.
type Rule struct {
	Mode Mode
	// Err is the ModeError payload. nil injects a default error that
	// reports Transient() == true, which the resilience layers retry;
	// supply a custom error to model permanent faults.
	Err error
	// Delay is the ModeLatency sleep.
	Delay time.Duration
	// P is the firing probability per eligible hit, drawn from the
	// registry's seeded PRNG. Outside (0, 1) the rule always fires.
	P float64
	// After skips the first After hits since arming (count-based
	// arming: "fail the 3rd write").
	After int
	// Times caps how often the rule fires; 0 is unlimited. An
	// exhausted point disarms itself, restoring the fast path.
	Times int
}

// PointStats reports one point's lifetime counters. Hits are counted
// only while the registry has at least one armed point (the disarmed
// fast path is deliberately unobserved).
type PointStats struct {
	Hits  int64 `json:"hits"`
	Fired int64 `json:"fired"`
	Armed bool  `json:"armed"`
}

// Snapshot is the registry state exported on /metrics.
type Snapshot struct {
	// Armed is the number of currently armed points.
	Armed int `json:"armed"`
	// Injected counts every fault fired since the last Reset.
	Injected int64 `json:"injected"`
	// Points carries per-point counters, keyed by name.
	Points map[string]PointStats `json:"points,omitempty"`
}

// point is one named fault point's state; guarded by Registry.mu.
type point struct {
	rule  Rule
	armed bool
	hits  int64
	fired int64
}

// Registry holds a set of fault points. The zero value is not usable;
// create with New. All methods are safe for concurrent use.
type Registry struct {
	armed    atomic.Int32 // number of armed points; 0 short-circuits Hit
	injected atomic.Int64

	mu     sync.Mutex
	rng    *rand.Rand
	points map[string]*point
}

// New returns an empty registry whose probability rules draw from a
// PRNG seeded with seed.
func New(seed int64) *Registry {
	return &Registry{
		rng:    rand.New(rand.NewSource(seed)),
		points: make(map[string]*point),
	}
}

// Arm installs rule at name, resetting the point's counters so After
// and Times count from this arming.
func (r *Registry) Arm(name string, rule Rule) {
	r.mu.Lock()
	defer r.mu.Unlock()
	pt := r.points[name]
	if pt == nil {
		pt = &point{}
		r.points[name] = pt
	}
	if !pt.armed {
		r.armed.Add(1)
	}
	*pt = point{rule: rule, armed: true}
}

// Reset disarms every point, forgets all counters and restores the
// fast path. The PRNG keeps its sequence; call Seed to rewind it.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.points = make(map[string]*point)
	r.armed.Store(0)
	r.injected.Store(0)
}

// Seed re-seeds the probability PRNG, making the next schedule
// reproducible.
func (r *Registry) Seed(seed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rng = rand.New(rand.NewSource(seed))
}

// Hit is the per-site check compiled into instrumented code paths.
// Disarmed it is a single atomic load returning nil. Armed, it applies
// the point's rule: returns an injected error, sleeps, or panics.
func (r *Registry) Hit(name string) error {
	if r.armed.Load() == 0 {
		return nil
	}
	return r.hitSlow(name)
}

// hitSlow is the armed path: count the hit, decide firing, apply the
// rule. Split out so the fast path inlines.
func (r *Registry) hitSlow(name string) error {
	r.mu.Lock()
	pt := r.points[name]
	if pt == nil {
		pt = &point{}
		r.points[name] = pt
	}
	pt.hits++
	if !pt.armed {
		r.mu.Unlock()
		return nil
	}
	rule := pt.rule
	fire := pt.hits > int64(rule.After)
	if fire && rule.P > 0 && rule.P < 1 {
		fire = r.rng.Float64() < rule.P
	}
	if fire {
		pt.fired++
		r.injected.Add(1)
		if rule.Times > 0 && pt.fired >= int64(rule.Times) {
			// Exhausted: self-disarm so the fast path comes back.
			pt.armed = false
			r.armed.Add(-1)
		}
	}
	r.mu.Unlock()
	if !fire {
		return nil
	}
	switch rule.Mode {
	case ModeLatency:
		time.Sleep(rule.Delay)
		return nil
	case ModePanic:
		panic(fmt.Sprintf("faultpoint: injected panic at %q", name))
	default:
		if rule.Err != nil {
			return rule.Err
		}
		return &injectedError{name: name}
	}
}

// Snapshot exports the registry's counters.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{
		Armed:    int(r.armed.Load()),
		Injected: r.injected.Load(),
	}
	if len(r.points) > 0 {
		snap.Points = make(map[string]PointStats, len(r.points))
		for name, pt := range r.points {
			snap.Points[name] = PointStats{Hits: pt.hits, Fired: pt.fired, Armed: pt.armed}
		}
	}
	return snap
}

// injectedError is the default ModeError payload: transient, so the
// resilience layers retry it the way the algorithm tolerates a faulty
// robot.
type injectedError struct{ name string }

func (e *injectedError) Error() string {
	return fmt.Sprintf("faultpoint: injected fault at %q", e.name)
}

// Transient marks the fault as retryable to the resilience layers.
func (e *injectedError) Transient() bool { return true }

// Injected marks the error as synthetic for IsInjected.
func (e *injectedError) Injected() bool { return true }

// IsInjected reports whether err (or anything it wraps) was produced
// by a fault point's default error.
func IsInjected(err error) bool {
	var m interface{ Injected() bool }
	return errors.As(err, &m) && m.Injected()
}

// IsTransient reports whether err advertises itself as retryable via a
// Transient() bool method, the classification contract shared by the
// sweep retry layer and the service's 503 mapping.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// std is the process-wide registry the package-level helpers use; the
// instrumented code paths all hit this one.
var std = New(1)

// Hit checks name against the process-wide registry.
func Hit(name string) error { return std.Hit(name) }

// Arm arms name on the process-wide registry.
func Arm(name string, rule Rule) { std.Arm(name, rule) }

// Reset clears the process-wide registry.
func Reset() { std.Reset() }

// Seed re-seeds the process-wide registry's PRNG.
func Seed(seed int64) { std.Seed(seed) }

// Stats snapshots the process-wide registry.
func Stats() Snapshot { return std.Snapshot() }
