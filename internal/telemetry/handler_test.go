package telemetry

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestStatusRecorderCapturesFinalStatus proves the recorder reports
// what the client saw: explicit WriteHeader, implicit 200 on first
// Write, and first-write-wins on duplicate WriteHeader calls.
func TestStatusRecorderCapturesFinalStatus(t *testing.T) {
	rec := &StatusRecorder{ResponseWriter: httptest.NewRecorder()}
	rec.WriteHeader(http.StatusBadGateway)
	rec.WriteHeader(http.StatusOK) // late second header must not win
	if rec.Status != http.StatusBadGateway {
		t.Errorf("status = %d, want first WriteHeader", rec.Status)
	}
	rec = &StatusRecorder{ResponseWriter: httptest.NewRecorder()}
	rec.Write([]byte("ok"))
	if rec.Status != http.StatusOK {
		t.Errorf("implicit status = %d, want 200", rec.Status)
	}
}

// A writer with no Flush support must not blow up when the handler
// flushes through the recorder, and the flush must imply a 200 like
// Write does.
func TestStatusRecorderFlushWithoutUnderlyingFlusher(t *testing.T) {
	type plainWriter struct{ http.ResponseWriter } // hides Flush from httptest.ResponseRecorder
	rec := &StatusRecorder{ResponseWriter: plainWriter{httptest.NewRecorder()}}
	rec.Flush() // must not panic
	if rec.Status != 0 {
		t.Errorf("no-op flush set status %d, want 0", rec.Status)
	}
	under := httptest.NewRecorder()
	rec = &StatusRecorder{ResponseWriter: under}
	rec.Flush()
	if rec.Status != http.StatusOK {
		t.Errorf("flush-first status = %d, want 200", rec.Status)
	}
	if !under.Flushed {
		t.Error("flush did not reach the underlying writer")
	}
}
