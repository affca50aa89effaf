package membership

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzGossipHandler posts arbitrary bodies to the inbound gossip
// endpoint: whatever a peer sends, the handler must not panic and must
// answer 200 (a message it handled) or 400 (one it could not decode).
// A ping-req target is probed over an empty loopback fabric, so the
// fuzzer never touches the network.
func FuzzGossipHandler(f *testing.F) {
	f.Add([]byte(`{"kind":"ping","from":{"addr":"b:1","url":"http://b:1"},"members":[]}`))
	f.Add([]byte(`{"kind":"ping-req","from":{"addr":"b:1"},"target":"mem://c","members":[{"addr":"c:1","status":1,"incarnation":3}]}`))
	f.Add([]byte(`{"kind":"ping","from":{"addr":"a:1"},"members":[{"addr":"a:1","status":2,"incarnation":9}]}`))
	f.Add([]byte(`{"kind":"bogus","from":{},"members":null}`))
	f.Add([]byte(`{"members":[{"addr":""}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, body []byte) {
		n, err := NewNode(Config{Self: Member{Addr: "a:1"}, Transport: NewLoopback(), Logger: quiet})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		Handler(n).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, GossipPath, bytes.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("gossip body %q answered %d, want 200 or 400", body, rec.Code)
		}
	})
}
