package service

import (
	"net/http"
	"sync/atomic"

	"linesearch/internal/telemetry"
)

// Admission classes: every route belongs to exactly one, and each class
// has its own in-flight bound so one saturated workload (a storm of
// batch requests, a sweep-status poller gone wild) cannot starve the
// others. healthz and metrics are never limited — an overloaded daemon
// must still answer its probes.
const (
	classQuery  = "query"  // the cheap GET evaluation endpoints
	classBatch  = "batch"  // POST /v1/batch (bounded worker pool inside)
	classSweeps = "sweeps" // the sweep job API
	classCache  = "cache"  // the plan-cache snapshot export/import API
)

// In-flight bounds per admission class. Requests beyond a bound are
// shed with a 429 and Retry-After. The cache class also serves the
// replica API; an import builds plans, so a storm of them must not
// starve the serving path.
const (
	maxInflightQuery  = 256
	maxInflightBatch  = 8
	maxInflightSweeps = 16
	maxInflightCache  = 4
)

// maxConcurrentBuilds bounds the plan builds running at once. A build
// keeps running after its requester times out or disconnects, so the
// in-flight bounds above do not cover it; the plan cache does (see
// PlanCache.claim). It matches the query bound, which capped builds
// while every request waited for its own.
const maxConcurrentBuilds = maxInflightQuery

// classLimiter bounds the in-flight requests of one admission class.
// Admission is non-blocking: a full class sheds the request immediately
// with a 429 rather than queueing it into the request timeout.
type classLimiter struct {
	slots    chan struct{}
	inflight atomic.Int64
	shed     atomic.Int64
}

// newClassLimiter returns a limiter admitting up to limit concurrent
// requests.
func newClassLimiter(limit int) *classLimiter {
	return &classLimiter{slots: make(chan struct{}, limit)}
}

// tryAcquire claims a slot without blocking; false means shed.
func (l *classLimiter) tryAcquire() bool {
	select {
	case l.slots <- struct{}{}:
	default:
		l.shed.Add(1)
		return false
	}
	l.inflight.Add(1)
	return true
}

// release returns the slot claimed by a successful tryAcquire.
func (l *classLimiter) release() {
	l.inflight.Add(-1)
	<-l.slots
}

// admit wraps a handler with the class's in-flight bound. Shed requests
// get a 429 with Retry-After and never reach the handler.
func (s *Service) admit(class string, next http.Handler) http.Handler {
	lim := s.limiters[class]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !lim.tryAcquire() {
			telemetry.WriteJSONError(w, http.StatusTooManyRequests,
				"server is at its in-flight limit for "+class+" requests, retry shortly")
			return
		}
		defer lim.release()
		next.ServeHTTP(w, r)
	})
}
