package cluster

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"linesearch/internal/telemetry"
	"linesearch/internal/telemetry/journal"
)

// healthLoop probes every backend on the configured cadence until
// Close.
func (r *Router) healthLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.ProbeAll()
		}
	}
}

// ProbeAll runs one health round over every backend. Exported so
// tests (and the health loop) drive rounds deterministically instead
// of sleeping through ticker cadence.
func (r *Router) ProbeAll() {
	r.mu.RLock()
	backends := make([]*backend, 0, len(r.backends))
	for _, b := range r.backends {
		backends = append(backends, b)
	}
	r.mu.RUnlock()
	for _, b := range backends {
		r.probe(b)
	}
}

// probe casts one health vote for b. A vote fails when the /healthz
// probe fails, or when the slow-vote rule trips: the backend's mean
// proxied latency since the last round exceeded SlowThreshold. The
// paper's faulty robot never announces itself — it just stops helping
// — so a shard slow enough to be useless draws the same vote a dead
// one does. Only QuarantineVotes consecutive failed votes quarantine
// the backend (the quorum-style detection rule); any healthy vote
// resets the count and lifts the quarantine.
func (r *Router) probe(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), healthTimeout)
	_, err := telemetry.CallJSON(ctx, r.client, http.MethodGet, b.base.String()+"/healthz", nil, nil, 4096)
	cancel()
	ok := err == nil
	if ok && r.cfg.SlowThreshold > 0 {
		snap := b.hist.Snapshot()
		dc := snap.Count - b.lastCount
		ds := snap.Sum - b.lastSum
		b.lastCount, b.lastSum = snap.Count, snap.Sum
		if dc > 0 && time.Duration(ds/float64(dc)*float64(time.Second)) > r.cfg.SlowThreshold {
			ok = false
		}
	}
	if ok {
		if b.down.Swap(false) {
			r.logger.Info("backend recovered", "backend", b.name)
			r.journal.Record(context.Background(), journal.QuarantineExit, b.name, "healthy vote")
		}
		b.votes.Store(0)
		return
	}
	b.probeFails.Add(1)
	if int(b.votes.Add(1)) >= r.cfg.QuarantineVotes && !b.down.Swap(true) {
		b.quarantines.Add(1)
		r.logger.Warn("backend quarantined",
			"backend", b.name, "votes", b.votes.Load())
		r.journal.Record(context.Background(), journal.QuarantineEnter, b.name,
			fmt.Sprintf("%d failed votes", b.votes.Load()))
	}
}
