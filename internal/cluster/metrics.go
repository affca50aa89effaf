package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"time"

	"linesearch/internal/telemetry"
)

// BackendStats is one backend's view in the router's metrics snapshot.
type BackendStats struct {
	Name        string                      `json:"name"`
	Available   bool                        `json:"available"`
	Quarantined bool                        `json:"quarantined"`
	BreakerOpen bool                        `json:"breaker_open"`
	Requests    int64                       `json:"requests"`
	Failures    int64                       `json:"failures"`
	ProbeFails  int64                       `json:"probe_fails"`
	Quarantines int64                       `json:"quarantines"`
	Latency     telemetry.HistogramSnapshot `json:"latency"`
}

// Stats is the router's metrics snapshot, served by GET /metrics.
type Stats struct {
	Backends []BackendStats `json:"backends"`
	Proxied  int64          `json:"proxied"`
	Retries  int64          `json:"retries"`
	// ReplicaReads counts pure reads fanned out to the key's owner
	// pair because the primary was unavailable.
	ReplicaReads int64 `json:"replica_fanout_reads"`
	ProxyErrors  int64 `json:"proxy_errors"`
	WarmRuns     int64 `json:"warm_transfer_runs"`
	WarmKeys     int64 `json:"warm_transfer_keys"`
	WarmErrors   int64 `json:"warm_transfer_errors"`
	// SLO is the multi-window burn-rate reading over routed requests.
	SLO SLOStats `json:"slo"`
	// JournalEvents counts recorded events per kind — every kind is
	// present, zero or not, so the Prometheus exposition registers a
	// counter per kind by construction.
	JournalEvents map[string]int64 `json:"journal_events"`
	// Tracer is the router's own trace-ring health (sampling, drops,
	// truncation).
	Tracer telemetry.TracerStats `json:"tracer"`
}

// Stats snapshots the router.
func (r *Router) Stats() Stats {
	r.mu.RLock()
	backends := make([]*backend, 0, len(r.backends))
	for _, b := range r.backends {
		backends = append(backends, b)
	}
	r.mu.RUnlock()
	sort.Slice(backends, func(i, j int) bool { return backends[i].name < backends[j].name })
	now := time.Now()
	st := Stats{
		Backends:      make([]BackendStats, 0, len(backends)),
		Proxied:       r.proxied.Load(),
		Retries:       r.retries.Load(),
		ReplicaReads:  r.replicaReads.Load(),
		ProxyErrors:   r.proxyErrs.Load(),
		WarmRuns:      r.warmRuns.Load(),
		WarmKeys:      r.warmKeys.Load(),
		WarmErrors:    r.warmErrors.Load(),
		SLO:           r.slo.snapshot(),
		JournalEvents: r.journal.Counts(),
		Tracer:        r.tracer.Stats(),
	}
	for _, b := range backends {
		st.Backends = append(st.Backends, BackendStats{
			Name:        b.name,
			Available:   b.available(now),
			Quarantined: b.down.Load(),
			BreakerOpen: b.breaker.open(now),
			Requests:    b.requests.Load(),
			Failures:    b.failures.Load(),
			ProbeFails:  b.probeFails.Load(),
			Quarantines: b.quarantines.Load(),
			Latency:     b.hist.Snapshot(),
		})
	}
	return st
}

// handleHealthz reports router liveness plus the fleet's availability:
// 200 while at least one backend is available, 503 when none is — a
// load balancer in front of several routers needs that distinction.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	st := r.Stats()
	avail := 0
	for _, b := range st.Backends {
		if b.Available {
			avail++
		}
	}
	status := http.StatusOK
	if avail == 0 {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"status":             http.StatusText(status),
		"backends":           len(st.Backends),
		"backends_available": avail,
		"slo":                st.SLO,
	})
}

// handleMetrics serves the router snapshot: JSON by default, the
// Prometheus text exposition under the fleet-wide content negotiation
// (?format=prometheus, or a text/plain Accept header).
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	st := r.Stats()
	if telemetry.WantsPrometheus(req) {
		w.Header().Set("Content-Type", telemetry.PrometheusContentType)
		writePrometheus(w, st)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// topologyRequest is the PUT /admin/topology payload.
type topologyRequest struct {
	Backends []string `json:"backends"`
}

// handleTopology serves PUT /admin/topology: replace the backend set
// and warm-transfer hot plan-cache entries to their new owners.
func (r *Router) handleTopology(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 1<<20))
	if err != nil {
		telemetry.WriteJSONError(w, http.StatusBadRequest, "read topology body: "+err.Error())
		return
	}
	var tr topologyRequest
	if err := json.Unmarshal(body, &tr); err != nil {
		telemetry.WriteJSONError(w, http.StatusBadRequest, "decode topology: "+err.Error())
		return
	}
	if err := r.SetTopology(tr.Backends); err != nil {
		telemetry.WriteJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"backends": r.Backends()})
}

// writePrometheus renders the router snapshot in the text exposition
// format with linerouter_* families: fixed family order, backends in
// name order, deterministic output.
func writePrometheus(w io.Writer, st Stats) error {
	p := telemetry.NewPromWriter(w)

	p.Family("linerouter_proxied_requests_total", "counter", "Client requests entering the proxy.")
	p.Int("linerouter_proxied_requests_total", st.Proxied)
	p.Family("linerouter_retries_total", "counter", "Extra proxy attempts beyond the first.")
	p.Int("linerouter_retries_total", st.Retries)
	p.Family("linerouter_replica_fanout_reads_total", "counter", "Pure reads fanned out to the owner pair because the primary was unavailable.")
	p.Int("linerouter_replica_fanout_reads_total", st.ReplicaReads)
	p.Family("linerouter_proxy_errors_total", "counter", "Requests that exhausted every attempt.")
	p.Int("linerouter_proxy_errors_total", st.ProxyErrors)
	p.Family("linerouter_warm_transfer_runs_total", "counter", "Warm-transfer rounds triggered by topology changes.")
	p.Int("linerouter_warm_transfer_runs_total", st.WarmRuns)
	p.Family("linerouter_warm_transfer_keys_total", "counter", "Plan-cache entries moved by warm transfers.")
	p.Int("linerouter_warm_transfer_keys_total", st.WarmKeys)
	p.Family("linerouter_warm_transfer_errors_total", "counter", "Warm-transfer export or import failures.")
	p.Int("linerouter_warm_transfer_errors_total", st.WarmErrors)

	p.Family("linerouter_slo_objective", "gauge", "Fraction of routed requests that must be good.")
	p.Float("linerouter_slo_objective", st.SLO.Objective)
	p.Family("linerouter_slo_latency_budget_seconds", "gauge", "Per-request latency budget the slow-rate burn is measured against.")
	p.Float("linerouter_slo_latency_budget_seconds", st.SLO.LatencyBudgetSeconds)
	p.Family("linerouter_slo_window_requests", "gauge", "Routed requests observed in each burn window.")
	for _, win := range st.SLO.Windows {
		p.Int("linerouter_slo_window_requests", win.Requests, "window", win.Window)
	}
	p.Family("linerouter_slo_error_burn_rate", "gauge", "Error-budget burn rate per window (1.0 = burning exactly at the allowed rate).")
	for _, win := range st.SLO.Windows {
		p.Float("linerouter_slo_error_burn_rate", win.ErrorBurnRate, "window", win.Window)
	}
	p.Family("linerouter_slo_latency_burn_rate", "gauge", "Latency-budget burn rate per window.")
	for _, win := range st.SLO.Windows {
		p.Float("linerouter_slo_latency_burn_rate", win.LatencyBurnRate, "window", win.Window)
	}

	p.Family("linerouter_journal_events_total", "counter", "Structured journal events recorded, by kind.")
	p.IntsByLabel("linerouter_journal_events_total", "kind", st.JournalEvents)

	p.Family("linerouter_tracer_dropped_traces_total", "counter", "Completed traces evicted from the ring before being read.")
	p.Int("linerouter_tracer_dropped_traces_total", st.Tracer.Evicted)
	p.Family("linerouter_tracer_truncated_traces_total", "counter", "Traces that completed with at least one span refused by the per-trace cap.")
	p.Int("linerouter_tracer_truncated_traces_total", st.Tracer.TruncatedTraces)

	p.Family("linerouter_backend_up", "gauge", "Backend availability (1 = routable).")
	for _, b := range st.Backends {
		up := int64(0)
		if b.Available {
			up = 1
		}
		p.Int("linerouter_backend_up", up, "backend", b.Name)
	}
	p.Family("linerouter_backend_requests_total", "counter", "Attempts forwarded, by backend.")
	for _, b := range st.Backends {
		p.Int("linerouter_backend_requests_total", b.Requests, "backend", b.Name)
	}
	p.Family("linerouter_backend_failures_total", "counter", "Failed attempts, by backend.")
	for _, b := range st.Backends {
		p.Int("linerouter_backend_failures_total", b.Failures, "backend", b.Name)
	}
	p.Family("linerouter_backend_quarantines_total", "counter", "Health-vote quarantine transitions, by backend.")
	for _, b := range st.Backends {
		p.Int("linerouter_backend_quarantines_total", b.Quarantines, "backend", b.Name)
	}
	p.Family("linerouter_backend_request_duration_seconds", "histogram", "Proxied request latency, by backend.")
	for _, b := range st.Backends {
		p.Histogram("linerouter_backend_request_duration_seconds", b.Latency, "backend", b.Name)
	}
	return p.Err()
}
