package telemetry

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestPromWriter(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Family("m", "counter", "Help text.")
	p.Int("m", 3, "path", "a\\b\"c\nd")
	p.IntsByLabel("m", "kind", map[string]int64{"z": 1, "a": 2}, "job", "x")
	p.Float("g", 0.25)
	p.Histogram("h", HistogramSnapshot{
		Count: 3, Sum: 1.5,
		Buckets: map[string]int64{"10": 3, "+Inf": 3, "0.5": 1, "2.5": 2},
	}, "job", "x")
	want := `# HELP m Help text.
# TYPE m counter
m{path="a\\b\"c\nd"} 3
m{job="x",kind="a"} 2
m{job="x",kind="z"} 1
g 0.25
h_bucket{job="x",le="0.5"} 1
h_bucket{job="x",le="2.5"} 2
h_bucket{job="x",le="10"} 3
h_bucket{job="x",le="+Inf"} 3
h_sum{job="x"} 1.5
h_count{job="x"} 3
`
	if got := buf.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if p.Err() != nil {
		t.Errorf("Err = %v", p.Err())
	}
}

type failingWriter struct{ n int }

func (w *failingWriter) Write(b []byte) (int, error) {
	w.n++
	return 0, errors.New("disk full")
}

// The first write error sticks, and later writes are skipped.
func TestPromWriterStickyError(t *testing.T) {
	w := &failingWriter{}
	p := NewPromWriter(w)
	p.Int("a", 1)
	p.Int("b", 2)
	if p.Err() == nil || w.n != 1 {
		t.Errorf("Err = %v after %d writes, want an error after 1", p.Err(), w.n)
	}
}

func TestWantsPrometheus(t *testing.T) {
	cases := []struct {
		target, accept string
		want           bool
	}{
		{"/metrics", "", false},
		{"/metrics", "application/json", false},
		{"/metrics", "text/plain;version=0.0.4", true},
		{"/metrics", "Application/OpenMetrics-Text;version=1.0.0", true},
		{"/metrics?format=prometheus", "", true},
		{"/metrics?format=json", "text/plain", false},
	}
	for _, tc := range cases {
		r := httptest.NewRequest("GET", tc.target, nil)
		if tc.accept != "" {
			r.Header.Set("Accept", tc.accept)
		}
		if got := WantsPrometheus(r); got != tc.want {
			t.Errorf("%s Accept %q: got %v, want %v", tc.target, tc.accept, got, tc.want)
		}
	}
}

// Shed and unavailable responses tell the client when to come back;
// plain client errors do not.
func TestWriteJSONErrorRetryAfter(t *testing.T) {
	for status, want := range map[int]string{
		http.StatusBadRequest:         "",
		http.StatusTooManyRequests:    "1",
		http.StatusServiceUnavailable: "1",
	} {
		w := httptest.NewRecorder()
		WriteJSONError(w, status, "nope")
		if w.Code != status || w.Header().Get("Retry-After") != want || w.Body.String() != `{"error":"nope"}`+"\n" {
			t.Errorf("status %d: code %d, Retry-After %q, body %q", status, w.Code, w.Header().Get("Retry-After"), w.Body.String())
		}
	}
}
