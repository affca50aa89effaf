package cluster

import (
	"fmt"
	"net/url"
	"sync/atomic"
	"time"

	"linesearch/internal/telemetry"
	"linesearch/internal/telemetry/journal"
)

// backend is one linesearchd process behind the router: its base URL,
// circuit breaker, health-vote state and telemetry. The latency
// histogram feeds three consumers: the router's /metrics exposition,
// the loadgen percentile read-back, and the health checker's slow-vote
// rule (a shard whose mean latency over a probe window exceeds the
// threshold draws a failed vote exactly like a failed probe — the
// paper's silent-fault robot, slow enough to be useless, is treated as
// faulty).
type backend struct {
	name string // host:port, the ring member and metrics label
	base *url.URL

	breaker *breaker
	hist    *telemetry.Histogram

	requests atomic.Int64 // proxied attempts sent to this backend
	failures atomic.Int64 // attempts that failed (transport error or retryable status)

	// Health-vote state, owned by the health loop.
	down        atomic.Bool
	votes       atomic.Int32 // consecutive failed health votes
	probeFails  atomic.Int64 // lifetime failed probes
	quarantines atomic.Int64 // lifetime down transitions

	// Last histogram reading the slow-vote rule diffed against.
	lastCount int64
	lastSum   float64
}

// newBackend parses a base URL into a backend. Only the scheme and
// host are kept: the router joins request paths onto it. The breaker
// records its open/half-open/close transitions into jrnl under the
// backend's name.
func newBackend(raw string, cooldown time.Duration, jrnl *journal.Journal) (*backend, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("cluster: backend url %q: %w", raw, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("cluster: backend url %q needs a scheme and host (e.g. http://127.0.0.1:8081)", raw)
	}
	return &backend{
		name:    u.Host,
		base:    &url.URL{Scheme: u.Scheme, Host: u.Host},
		breaker: newBreaker(failureThreshold, cooldown, u.Host, jrnl),
		hist:    telemetry.NewHistogram(),
	}, nil
}

// available reports whether the router should prefer this backend:
// not quarantined by health voting and not rejected by the breaker.
func (b *backend) available(now time.Time) bool {
	return !b.down.Load() && b.breaker.allow(now)
}
