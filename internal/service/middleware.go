package service

import (
	"log/slog"
	"net/http"
	"time"

	"linesearch/internal/telemetry"
)

// statusRecorder captures the status code a handler writes so the
// middleware can log and count it. It forwards Flush to the wrapped
// writer (streaming and long-poll responses must not silently lose
// flush support) and exposes Unwrap for http.ResponseController.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it supports flushing.
// Data reaching the wire implies a 200 if no status was set, matching
// Write.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		if r.status == 0 {
			r.status = http.StatusOK
		}
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer so http.ResponseController finds
// optional interfaces (Flusher, Hijacker, ...) the recorder does not
// re-implement.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

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
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		elapsed := time.Since(start)
		span.SetInt("status", int64(rec.status))
		span.End()
		s.metrics.Observe(endpoint, rec.status, elapsed)
		level := slog.LevelInfo
		if quietEndpoints[endpoint] {
			level = slog.LevelDebug
		}
		s.logger.Log(r.Context(), level, "request",
			"method", r.Method,
			"path", r.URL.Path,
			"endpoint", endpoint,
			"status", rec.status,
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

// The recorder must keep advertising Flusher: dropping it silently
// breaks streaming responses behind the middleware.
var _ interface {
	http.ResponseWriter
	http.Flusher
} = (*statusRecorder)(nil)
