package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"linesearch/internal/telemetry/journal"
)

// breaker is a per-backend circuit breaker. Closed it admits
// everything; consecutive failures at or beyond the threshold open it
// for a cooldown, during which the backend is skipped in failover
// order. A backend that answers 429/503 with Retry-After opens the
// breaker for exactly that long — the router honors the admission
// contract by cooling the shard down instead of hammering it, while
// failing over to the next owner immediately. After the cooldown the
// breaker is half-open: requests flow again, a success closes it, and
// the first failure re-opens it for a full cooldown (the consecutive
// count is already at the threshold).
//
// State transitions (open, half-open probe, close) are recorded in the
// journal under the backend's name so an operator can line up "breaker
// opened" against the membership and quarantine events around it.
type breaker struct {
	threshold int
	cooldown  time.Duration
	name      string           // backend host:port, the journal member label
	jrnl      *journal.Journal // nil-safe

	mu             sync.Mutex
	failures       int       // consecutive
	openUntil      time.Time // zero when closed
	halfOpenLogged bool      // one half-open event per open cycle
}

// newBreaker returns a closed breaker.
func newBreaker(threshold int, cooldown time.Duration, name string, jrnl *journal.Journal) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, name: name, jrnl: jrnl}
}

// allow reports whether a request may be sent now. The first allowed
// request after the cooldown lapses marks the half-open probe.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	if b.openUntil.IsZero() {
		b.mu.Unlock()
		return true
	}
	if now.Before(b.openUntil) {
		b.mu.Unlock()
		return false
	}
	logHalfOpen := !b.halfOpenLogged
	b.halfOpenLogged = true
	b.mu.Unlock()
	if logHalfOpen {
		b.jrnl.Record(context.Background(), journal.BreakerHalfOpen, b.name, "cooldown lapsed, probing")
	}
	return true
}

// success records a request the backend answered healthily and closes
// the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	wasOpen := !b.openUntil.IsZero()
	b.failures = 0
	b.openUntil = time.Time{}
	b.halfOpenLogged = false
	b.mu.Unlock()
	if wasOpen {
		b.jrnl.Record(context.Background(), journal.BreakerClose, b.name, "half-open probe succeeded")
	}
}

// failure records a failed request. retryAfter > 0 (a parsed
// Retry-After header) opens the breaker for exactly that long — the
// backend told us when to come back; otherwise consecutive failures
// reaching the threshold open it for the cooldown.
func (b *breaker) failure(now time.Time, retryAfter time.Duration) {
	b.mu.Lock()
	wasOpen := !b.openUntil.IsZero() && now.Before(b.openUntil)
	b.failures++
	var detail string
	switch {
	case retryAfter > 0:
		b.openUntil = now.Add(retryAfter)
		b.halfOpenLogged = false
		detail = fmt.Sprintf("retry-after %s", retryAfter)
	case b.failures >= b.threshold:
		b.openUntil = now.Add(b.cooldown)
		b.halfOpenLogged = false
		detail = fmt.Sprintf("%d consecutive failures", b.failures)
	}
	isOpen := !b.openUntil.IsZero() && now.Before(b.openUntil)
	b.mu.Unlock()
	if isOpen && !wasOpen {
		b.jrnl.Record(context.Background(), journal.BreakerOpen, b.name, detail)
	}
}

// open reports whether the breaker currently rejects requests.
func (b *breaker) open(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.openUntil.IsZero() && now.Before(b.openUntil)
}
