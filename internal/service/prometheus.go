package service

import (
	"io"
	"sort"

	"linesearch/internal/telemetry"
)

// writePrometheus renders the full metrics snapshot in the Prometheus
// text exposition format. Ordering is deterministic: fixed family
// order, endpoints and label values sorted.
func writePrometheus(w io.Writer, snap Snapshot) error {
	p := telemetry.NewPromWriter(w)

	p.Family("linesearchd_uptime_seconds", "gauge", "Seconds since the service started.")
	p.Float("linesearchd_uptime_seconds", snap.UptimeSeconds)

	endpoints := make([]string, 0, len(snap.Endpoints))
	for ep := range snap.Endpoints {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	p.Family("linesearchd_http_requests_total", "counter", "Requests served, by endpoint and status class.")
	for _, ep := range endpoints {
		p.IntsByLabel("linesearchd_http_requests_total", "class", snap.Endpoints[ep].Status, "endpoint", ep)
	}

	p.Family("linesearchd_http_request_duration_seconds", "histogram", "Request latency, by endpoint.")
	for _, ep := range endpoints {
		p.Histogram("linesearchd_http_request_duration_seconds", snap.Endpoints[ep].Latency, "endpoint", ep)
	}

	p.Family("linesearchd_dropped_observations_total", "counter", "Metric observations dropped because their endpoint was never registered.")
	p.Int("linesearchd_dropped_observations_total", snap.DroppedObservations)

	p.Family("linesearchd_plan_cache_operations_total", "counter", "Plan cache outcomes.")
	p.IntsByLabel("linesearchd_plan_cache_operations_total", "op", map[string]int64{
		"evictions":      snap.Cache.Evictions,
		"hits":           snap.Cache.Hits,
		"imports":        snap.Cache.Imports,
		"inflight_waits": snap.Cache.InflightWaits,
		"misses":         snap.Cache.Misses,
		"warmed":         snap.Cache.Warmed,
	})
	p.Family("linesearchd_plan_cache_size", "gauge", "Plans currently cached.")
	p.Int("linesearchd_plan_cache_size", int64(snap.Cache.Size))
	p.Family("linesearchd_plan_cache_capacity", "gauge", "Plan cache capacity.")
	p.Int("linesearchd_plan_cache_capacity", int64(snap.Cache.Capacity))

	p.Family("linesearchd_sweep_jobs_total", "counter", "Sweep job lifecycle events.")
	p.IntsByLabel("linesearchd_sweep_jobs_total", "event", map[string]int64{
		"cancelled": snap.Sweeps.Cancelled,
		"completed": snap.Sweeps.Completed,
		"failed":    snap.Sweeps.Failed,
		"resumed":   snap.Sweeps.Resumed,
		"submitted": snap.Sweeps.Submitted,
	})
	p.Family("linesearchd_sweep_cells_total", "counter", "Sweep cell outcomes.")
	p.IntsByLabel("linesearchd_sweep_cells_total", "outcome", map[string]int64{
		"computed":    snap.Sweeps.CellsComputed,
		"errors":      snap.Sweeps.CellErrors,
		"quarantined": snap.Sweeps.CellsQuarantined,
		"resumed":     snap.Sweeps.CellsResumed,
		"retries":     snap.Sweeps.CellRetries,
	})
	p.Family("linesearchd_sweep_checkpoint_failures_total", "counter", "Failed sweep checkpoint writes.")
	p.Int("linesearchd_sweep_checkpoint_failures_total", snap.Sweeps.CheckpointFailures)
	p.Family("linesearchd_sweep_running_jobs", "gauge", "Sweep jobs currently executing.")
	p.Int("linesearchd_sweep_running_jobs", int64(snap.Sweeps.RunningJobs))
	p.Family("linesearchd_sweep_pending_jobs", "gauge", "Sweep jobs waiting for a slot.")
	p.Int("linesearchd_sweep_pending_jobs", int64(snap.Sweeps.PendingJobs))
	if len(snap.Sweeps.CellLatency.Buckets) > 0 {
		p.Family("linesearchd_sweep_cell_latency_seconds", "histogram", "Per-cell sweep evaluation latency.")
		p.Histogram("linesearchd_sweep_cell_latency_seconds", snap.Sweeps.CellLatency)
	}

	p.Family("linesearchd_shed_requests_total", "counter", "Requests shed by per-class admission control.")
	p.IntsByLabel("linesearchd_shed_requests_total", "class", snap.Resilience.Shed)
	p.Family("linesearchd_inflight_requests", "gauge", "In-flight requests per admission class.")
	p.IntsByLabel("linesearchd_inflight_requests", "class", snap.Resilience.Inflight)
	p.Family("linesearchd_fault_points_armed", "gauge", "Fault points currently armed in this process.")
	p.Int("linesearchd_fault_points_armed", int64(snap.Resilience.FaultPointsArmed))
	p.Family("linesearchd_faults_injected_total", "counter", "Faults injected by armed fault points.")
	p.Int("linesearchd_faults_injected_total", snap.Resilience.FaultsInjected)

	ts := snap.Traces
	p.Family("linesearchd_trace_requests_total", "counter", "Requests seen by the tracer.")
	p.Int("linesearchd_trace_requests_total", ts.RequestsSeen)
	p.Family("linesearchd_traces_sampled_total", "counter", "Requests sampled into a trace.")
	p.Int("linesearchd_traces_sampled_total", ts.Sampled)
	p.Family("linesearchd_traces_finished_total", "counter", "Traces completed into the ring buffer.")
	p.Int("linesearchd_traces_finished_total", ts.Finished)
	p.Family("linesearchd_trace_spans_dropped_total", "counter", "Spans dropped by the per-trace cap.")
	p.Int("linesearchd_trace_spans_dropped_total", ts.SpansDropped)
	p.Family("linesearchd_traces_evicted_total", "counter", "Completed traces evicted from the ring buffer.")
	p.Int("linesearchd_traces_evicted_total", ts.Evicted)
	p.Family("linesearchd_traces_buffered", "gauge", "Completed traces currently retained.")
	p.Int("linesearchd_traces_buffered", int64(ts.Buffered))
	p.Family("linesearchd_tracer_dropped_traces_total", "counter", "Completed traces lost to ring eviction before being read.")
	p.Int("linesearchd_tracer_dropped_traces_total", ts.Evicted)
	p.Family("linesearchd_tracer_truncated_traces_total", "counter", "Traces that completed with at least one span refused by the per-trace cap.")
	p.Int("linesearchd_tracer_truncated_traces_total", ts.TruncatedTraces)

	// JournalEvents always holds every kind, so the family is
	// exhaustive even before the first event.
	p.Family("linesearchd_journal_events_total", "counter", "Structured journal events recorded, by kind.")
	p.IntsByLabel("linesearchd_journal_events_total", "kind", snap.JournalEvents)

	rt := snap.Runtime
	p.Family("linesearchd_goroutines", "gauge", "Live goroutines.")
	p.Int("linesearchd_goroutines", int64(rt.Goroutines))
	p.Family("linesearchd_gomaxprocs", "gauge", "GOMAXPROCS.")
	p.Int("linesearchd_gomaxprocs", int64(rt.GOMAXPROCS))
	p.Family("linesearchd_heap_alloc_bytes", "gauge", "Bytes of live heap objects.")
	p.Int("linesearchd_heap_alloc_bytes", int64(rt.HeapAllocBytes))
	p.Family("linesearchd_heap_sys_bytes", "gauge", "Heap bytes obtained from the OS.")
	p.Int("linesearchd_heap_sys_bytes", int64(rt.HeapSysBytes))
	p.Family("linesearchd_heap_objects", "gauge", "Live heap objects.")
	p.Int("linesearchd_heap_objects", int64(rt.HeapObjects))
	p.Family("linesearchd_alloc_bytes_total", "counter", "Cumulative bytes allocated.")
	p.Int("linesearchd_alloc_bytes_total", int64(rt.TotalAllocBytes))
	p.Family("linesearchd_gc_runs_total", "counter", "Completed GC cycles.")
	p.Int("linesearchd_gc_runs_total", int64(rt.GCRuns))
	p.Family("linesearchd_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause.")
	p.Float("linesearchd_gc_pause_seconds_total", rt.GCPauseTotalSeconds)
	p.Family("linesearchd_gc_last_pause_seconds", "gauge", "Most recent GC pause.")
	p.Float("linesearchd_gc_last_pause_seconds", rt.LastGCPauseSeconds)

	return p.Err()
}
