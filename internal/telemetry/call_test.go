package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// peerCall is what the test peer saw of one request.
type peerCall struct {
	method, contentType, traceparent string
	body                             string
}

// newPeer serves answer for every request and reports what it received
// on the returned channel; a test must drain one report per request
// before making the next.
func newPeer(t *testing.T, answer http.HandlerFunc) (*httptest.Server, <-chan peerCall) {
	t.Helper()
	seen := make(chan peerCall, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		seen <- peerCall{r.Method, r.Header.Get("Content-Type"), r.Header.Get("Traceparent"), string(body)}
		answer(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, seen
}

func TestCallJSONDecodesOK(t *testing.T) {
	srv, seen := newPeer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"n":7,"name":"seven"}`))
	})
	var out struct {
		N    int    `json:"n"`
		Name string `json:"name"`
	}
	status, err := CallJSON(context.Background(), srv.Client(), http.MethodPut, srv.URL,
		map[string]int{"x": 1}, &out, 1<<10)
	if err != nil || status != http.StatusOK {
		t.Fatalf("CallJSON = %d, %v", status, err)
	}
	if out.N != 7 || out.Name != "seven" {
		t.Errorf("decoded %+v", out)
	}
	got := <-seen
	if got.method != http.MethodPut || got.body != `{"x":1}` {
		t.Errorf("peer saw %s %q", got.method, got.body)
	}
	if got.contentType != "application/json" {
		t.Errorf("Content-Type with a body = %q, want application/json", got.contentType)
	}
}

// With no body to send there is no Content-Type, and a nil out drains
// the answer instead of decoding it.
func TestCallJSONNilInAndOut(t *testing.T) {
	srv, seen := newPeer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(strings.Repeat("x", 512))) // not JSON: never decoded
	})
	status, err := CallJSON(context.Background(), srv.Client(), http.MethodGet, srv.URL, nil, nil, 1<<10)
	if err != nil || status != http.StatusOK {
		t.Fatalf("CallJSON = %d, %v", status, err)
	}
	got := <-seen
	if got.contentType != "" || got.body != "" {
		t.Errorf("bodiless request sent Content-Type %q, body %q", got.contentType, got.body)
	}
}

func TestCallJSONErrorCarriesStatusAndBody(t *testing.T) {
	srv, _ := newPeer(t, func(w http.ResponseWriter, r *http.Request) {
		WriteJSONError(w, http.StatusBadRequest, "checkpoint checksum mismatch "+strings.Repeat("z", 4096))
	})
	var out map[string]any
	status, err := CallJSON(context.Background(), srv.Client(), http.MethodGet, srv.URL, nil, &out, 1<<20)
	if status != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", status)
	}
	if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("error = %v, want the status and the peer's message", err)
	}
	if len(err.Error()) > errSnippet+len(srv.URL)+64 {
		t.Errorf("error quotes %d bytes, want at most a %d-byte snippet", len(err.Error()), errSnippet)
	}
	if out != nil {
		t.Errorf("error answer decoded into out: %v", out)
	}
}

// A 200 body longer than limit is cut at limit, so a value that does
// not fit fails to decode instead of being read without bound.
func TestCallJSONBodyOverLimit(t *testing.T) {
	blob, _ := json.Marshal(map[string]string{"pad": strings.Repeat("p", 2048)})
	srv, seen := newPeer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write(blob)
	})
	var out map[string]string
	if _, err := CallJSON(context.Background(), srv.Client(), http.MethodGet, srv.URL, nil, &out, 1024); err == nil {
		t.Fatal("decoded a body larger than the limit")
	}
	<-seen
	if _, err := CallJSON(context.Background(), srv.Client(), http.MethodGet, srv.URL, nil, &out, int64(len(blob))); err != nil {
		t.Fatalf("body exactly at the limit: %v", err)
	}
}

func TestCallJSONPropagatesTrace(t *testing.T) {
	srv, seen := newPeer(t, func(w http.ResponseWriter, r *http.Request) {})
	tr := New(Config{})
	ctx, span := tr.StartRequest(context.Background(), "req", "")
	defer span.End()
	if _, err := CallJSON(ctx, srv.Client(), http.MethodGet, srv.URL, nil, nil, 1<<10); err != nil {
		t.Fatal(err)
	}
	got := <-seen
	id, flags, ok := parseTraceparent(got.traceparent)
	if !ok || id != TraceIDFrom(ctx) || flags&1 != 1 {
		t.Errorf("peer saw traceparent %q, want sampled trace %s", got.traceparent, TraceIDFrom(ctx))
	}

	if _, err := CallJSON(context.Background(), srv.Client(), http.MethodGet, srv.URL, nil, nil, 1<<10); err != nil {
		t.Fatal(err)
	}
	if got := <-seen; got.traceparent != "" {
		t.Errorf("untraced call sent traceparent %q", got.traceparent)
	}
}
