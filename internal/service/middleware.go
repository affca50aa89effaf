package service

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"linesearch/internal/telemetry"
)

// quietEndpoints are access-logged at Debug instead of Info: probe and
// scrape pollers would otherwise drown real traffic in the logs.
var quietEndpoints = map[string]bool{"/healthz": true, "/metrics": true}

// instrument wraps one endpoint handler with per-endpoint metrics,
// request tracing and structured access logging. Sampled requests get
// a root span (adopting an incoming traceparent trace ID) and their
// access-log line carries trace_id; unsampled requests pay no
// allocations for the tracing hooks.
func (s *Service) instrument(endpoint string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, span := s.tracer.StartRequest(r.Context(), endpoint, r.Header.Get("Traceparent"))
		if span != nil {
			span.SetStr("method", r.Method)
			span.SetStr("path", r.URL.Path)
			r = r.WithContext(ctx)
		}
		rec := &telemetry.StatusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		if rec.Status == 0 {
			rec.Status = http.StatusOK
		}
		elapsed := time.Since(start)
		span.SetInt("status", int64(rec.Status))
		span.End()
		s.metrics.Observe(endpoint, rec.Status, elapsed)
		level := slog.LevelInfo
		if quietEndpoints[endpoint] {
			level = slog.LevelDebug
		}
		s.logger.Log(r.Context(), level, "request",
			"method", r.Method,
			"path", r.URL.Path,
			"endpoint", endpoint,
			"status", rec.Status,
			"duration_ms", float64(elapsed.Microseconds())/1000,
			"remote", r.RemoteAddr,
		)
	})
}

// recoverPanics converts a handler panic into a 500 instead of tearing
// down the connection, and logs the value.
func (s *Service) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					panic(v)
				}
				s.logger.ErrorContext(r.Context(), "panic in handler", "path", r.URL.Path, "panic", v)
				telemetry.WriteJSONError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withDeadline bounds every request by budget with a deadline on the
// request context. The plan-cache wait, the kernel's batched
// evaluation, the batch fan-out and the snapshot import stop at it,
// and the handler answers 503. Unlike http.TimeoutHandler it starts no
// goroutine and buffers no response, so the access log and metrics see
// the status the client gets.
func withDeadline(next http.Handler, budget time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
