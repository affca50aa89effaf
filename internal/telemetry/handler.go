package telemetry

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
)

// StatusRecorder captures the status a handler writes: the first
// WriteHeader wins, and a Write or Flush before any implies 200. Both
// daemons wrap every response in one to count, log and score the
// client-visible outcome. It forwards Flush to the wrapped writer
// (streaming and long-poll responses must not silently lose flush
// support) and exposes Unwrap for http.ResponseController.
type StatusRecorder struct {
	http.ResponseWriter
	// Status is the recorded code, 0 until the handler writes.
	Status int
}

func (r *StatusRecorder) WriteHeader(status int) {
	if r.Status == 0 {
		r.Status = status
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *StatusRecorder) Write(b []byte) (int, error) {
	if r.Status == 0 {
		r.Status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it supports flushing.
// Data reaching the wire implies a 200 if no status was set, matching
// Write.
func (r *StatusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		if r.Status == 0 {
			r.Status = http.StatusOK
		}
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer so http.ResponseController finds
// optional interfaces (Flusher, Hijacker, ...) the recorder does not
// re-implement.
func (r *StatusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// The recorder must keep advertising Flusher: dropping it silently
// breaks streaming responses behind the middleware.
var _ interface {
	http.ResponseWriter
	http.Flusher
} = (*StatusRecorder)(nil)

// WriteJSONError writes the fleet's uniform error payload,
// {"error": msg}. Shed and transiently failing responses (429, 503)
// carry Retry-After: the condition is momentary, and well-behaved
// clients back off instead of hammering.
func WriteJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// TracesResponse answers GET /debug/traces on every process, so one
// reader (a human, or the router's fleet stitcher) reads routers and
// backends identically.
type TracesResponse struct {
	// Count is how many completed traces the ring currently holds
	// (before the n cut).
	Count  int             `json:"count"`
	Sort   string          `json:"sort"`
	Traces []TraceSnapshot `json:"traces"`
}

// TracesHandler serves the tracer's completed-trace ring as JSON.
// Shared by the backend service and the router.
//
//	GET /debug/traces?n=20&sort=recent    the n most recent traces
//	GET /debug/traces?n=20&sort=slowest   the n slowest traces
func TracesHandler(t *Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		n := 20
		if raw := q.Get("n"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v < 1 {
				WriteJSONError(w, http.StatusBadRequest, "parameter n must be a positive integer")
				return
			}
			n = v
		}
		order := q.Get("sort")
		if order == "" {
			order = "recent"
		}
		// Sort and cut on the roots; render only the traces returned.
		refs := t.Refs()
		switch order {
		case "recent":
			sort.Slice(refs, func(i, j int) bool { return refs[i].Start.After(refs[j].Start) })
		case "slowest":
			sort.Slice(refs, func(i, j int) bool {
				if refs[i].Duration != refs[j].Duration {
					return refs[i].Duration > refs[j].Duration
				}
				return refs[i].Start.After(refs[j].Start)
			})
		default:
			WriteJSONError(w, http.StatusBadRequest, `parameter sort must be "recent" or "slowest"`)
			return
		}
		traces := make([]TraceSnapshot, min(n, len(refs)))
		for i := range traces {
			traces[i] = refs[i].Snapshot()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(TracesResponse{Count: len(refs), Sort: order, Traces: traces})
	}
}
