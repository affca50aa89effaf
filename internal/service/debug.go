package service

import (
	"net/http"
	"net/http/pprof"

	"linesearch/internal/telemetry"
	"linesearch/internal/telemetry/journal"
)

// DebugHandler returns the operator debug surface: net/http/pprof, the
// trace ring and the metrics/health endpoints, meant for a separate
// loopback-only listener (linesearchd's -debug-addr flag). It is never
// part of Handler(): profiling endpoints can stall the process and
// must not share the serving port.
func (s *Service) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/traces", telemetry.TracesHandler(s.tracer))
	mux.Handle("/debug/events", journal.Handler(s.journal))
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}
