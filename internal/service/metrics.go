package service

import (
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"linesearch/internal/sweep"
	"linesearch/internal/telemetry"
)

// endpointMetrics aggregates one endpoint's counters: requests by
// status class and a latency histogram whose count is the request
// total. All fields are atomics so the hot path never takes a lock.
type endpointMetrics struct {
	status2x atomic.Int64
	status4x atomic.Int64
	status5x atomic.Int64
	latency  *telemetry.Histogram
}

// observe records one finished request.
func (m *endpointMetrics) observe(status int, d time.Duration) {
	switch {
	case status >= 500:
		m.status5x.Add(1)
	case status >= 400:
		m.status4x.Add(1)
	default:
		m.status2x.Add(1)
	}
	m.latency.Observe(d)
}

// Metrics is the service-wide registry. Endpoints are registered at
// construction, so the serving path only touches atomics.
type Metrics struct {
	start     time.Time
	endpoints map[string]*endpointMetrics

	dropped  atomic.Int64
	warnOnce sync.Once
	logger   *slog.Logger
}

// NewMetrics returns a registry with the given endpoint names
// pre-registered.
func NewMetrics(endpoints ...string) *Metrics {
	m := &Metrics{start: time.Now(), endpoints: make(map[string]*endpointMetrics, len(endpoints))}
	for _, e := range endpoints {
		m.endpoints[e] = &endpointMetrics{latency: telemetry.NewHistogram()}
	}
	return m
}

// SetLogger wires the logger used for misregistration warnings. Call
// before serving; nil leaves dropped observations counted but silent.
func (m *Metrics) SetLogger(l *slog.Logger) { m.logger = l }

// Observe records a finished request against a registered endpoint.
// Observations for unknown endpoints are dropped — a misregistration,
// not worth a panic on the serving path — but counted in the snapshot
// as dropped_observations and warned about once, so the mistake is
// visible instead of invisible.
func (m *Metrics) Observe(endpoint string, status int, d time.Duration) {
	em, ok := m.endpoints[endpoint]
	if !ok {
		m.dropped.Add(1)
		if m.logger != nil {
			m.warnOnce.Do(func() {
				m.logger.Warn("metrics observation dropped for unregistered endpoint"+
					" (further drops are counted, not logged)", "endpoint", endpoint)
			})
		}
		return
	}
	em.observe(status, d)
}

// EndpointSnapshot is the exported per-endpoint state. Requests is
// the latency histogram's count.
type EndpointSnapshot struct {
	Requests int64                       `json:"requests"`
	Status   map[string]int64            `json:"status"`
	Latency  telemetry.HistogramSnapshot `json:"latency_seconds"`
}

// ResilienceStats groups the admission-control and fault-injection
// counters: requests shed per class (429s), current in-flight gauges,
// and the fault-point registry state (nonzero armed means someone is
// deliberately injecting faults into this process).
type ResilienceStats struct {
	Shed             map[string]int64 `json:"shed_requests"`
	Inflight         map[string]int64 `json:"inflight_requests"`
	FaultPointsArmed int              `json:"fault_points_armed"`
	FaultsInjected   int64            `json:"faults_injected"`
}

// RuntimeStats are expvar-style process statistics: cheap point-in-
// time reads of the scheduler and the memory subsystem, enough to see
// a leak, a GC storm or goroutine pileup from /metrics alone.
type RuntimeStats struct {
	Goroutines          int     `json:"goroutines"`
	GOMAXPROCS          int     `json:"gomaxprocs"`
	HeapAllocBytes      uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes        uint64  `json:"heap_sys_bytes"`
	HeapObjects         uint64  `json:"heap_objects"`
	TotalAllocBytes     uint64  `json:"total_alloc_bytes"`
	GCRuns              uint32  `json:"gc_runs"`
	GCPauseTotalSeconds float64 `json:"gc_pause_total_seconds"`
	LastGCPauseSeconds  float64 `json:"last_gc_pause_seconds"`
}

// collectRuntime reads the process stats. ReadMemStats is a
// stop-the-world on the order of tens of microseconds — fine at
// metrics-scrape cadence, not for per-request paths.
func collectRuntime() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rs := RuntimeStats{
		Goroutines:          runtime.NumGoroutine(),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		HeapAllocBytes:      ms.HeapAlloc,
		HeapSysBytes:        ms.HeapSys,
		HeapObjects:         ms.HeapObjects,
		TotalAllocBytes:     ms.TotalAlloc,
		GCRuns:              ms.NumGC,
		GCPauseTotalSeconds: float64(ms.PauseTotalNs) / 1e9,
	}
	if ms.NumGC > 0 {
		rs.LastGCPauseSeconds = float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9
	}
	return rs
}

// Snapshot is the full /metrics payload. Every field present in PR 4
// keeps its shape; dropped_observations, runtime and traces are
// additive.
type Snapshot struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
	Cache         CacheStats                  `json:"cache"`
	// Sweeps carries the background job-engine counters and in-flight
	// gauges (see sweep.ManagerStats).
	Sweeps sweep.ManagerStats `json:"sweeps"`
	// Resilience carries the shed/fault counters (see ResilienceStats).
	Resilience ResilienceStats `json:"resilience"`
	// DroppedObservations counts Observe calls for endpoints nobody
	// registered (a wiring bug that used to be silent).
	DroppedObservations int64 `json:"dropped_observations"`
	// Runtime carries the expvar-style process stats.
	Runtime RuntimeStats `json:"runtime"`
	// Traces carries the request-tracer counters (see
	// telemetry.TracerStats).
	Traces telemetry.TracerStats `json:"traces"`
	// JournalEvents counts structured journal events per kind. Every
	// kind is present (zero or not), so the Prometheus exposition
	// registers a counter per kind by construction.
	JournalEvents map[string]int64 `json:"journal_events"`
}

// Snapshot exports every counter. Cumulative bucket values follow the
// Prometheus histogram convention (each bucket counts observations at
// or below its bound; "+Inf" equals count).
func (m *Metrics) Snapshot(cache CacheStats, sweeps sweep.ManagerStats, res ResilienceStats) Snapshot {
	out := Snapshot{
		UptimeSeconds:       time.Since(m.start).Seconds(),
		Endpoints:           make(map[string]EndpointSnapshot, len(m.endpoints)),
		Cache:               cache,
		Sweeps:              sweeps,
		Resilience:          res,
		DroppedObservations: m.dropped.Load(),
		Runtime:             collectRuntime(),
	}
	for name, em := range m.endpoints {
		lat := em.latency.Snapshot()
		out.Endpoints[name] = EndpointSnapshot{
			Requests: lat.Count,
			Status: map[string]int64{
				"2xx": em.status2x.Load(),
				"4xx": em.status4x.Load(),
				"5xx": em.status5x.Load(),
			},
			Latency: lat,
		}
	}
	return out
}
