package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
)

// BatchItem and BatchResponse are the batch answer's shape as a struct
// encoding/json renders. The handler splices per-item encodings into
// the envelope instead; a body decoded into this shape must re-encode
// to the same bytes.
type BatchItem struct {
	OK     bool   `json:"ok"`
	Result any    `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

type BatchResponse struct {
	Results []BatchItem `json:"results"`
	Errors  int         `json:"errors"`
}

// reencodeBatch decodes a batch answer into BatchResponse, keeping each
// result as raw JSON, and encodes it back the way json.Encoder would.
func reencodeBatch(body []byte) ([]byte, BatchResponse, error) {
	var wire struct {
		Results []struct {
			OK     bool            `json:"ok"`
			Result json.RawMessage `json:"result"`
			Error  string          `json:"error"`
		} `json:"results"`
		Errors int `json:"errors"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		return nil, BatchResponse{}, err
	}
	resp := BatchResponse{Results: make([]BatchItem, len(wire.Results)), Errors: wire.Errors}
	for i, it := range wire.Results {
		resp.Results[i] = BatchItem{OK: it.OK, Error: it.Error}
		if it.Result != nil {
			resp.Results[i].Result = it.Result
		}
	}
	out, err := json.Marshal(resp)
	return append(out, '\n'), resp, err
}

// FuzzBatch posts arbitrary bytes to /v1/batch. The handler must not
// panic, and must answer the same bytes again after a batch that sets
// every optional field. A 200 must declare its exact length, re-encode
// byte for byte through BatchResponse, and count one error per
// ok=false item; each ok searchtimes item must be the struct encoding
// of its targets decoded as a []float64 (checkSearchTimesAnswer), and
// each ok searchtime and lowerbound item the encoding of its
// searchTimeShape or lowerBoundShape.
// Inputs whose queries ask for more than 64 robots or 1,000 targets
// are skipped, so every input stays cheap.
func FuzzBatch(f *testing.F) {
	for _, req := range goldenRequests {
		if req.method == http.MethodPost {
			f.Add([]byte(req.body))
		}
	}
	// Strategy errors echo the name and list cone:<beta>, so the error
	// strings carry <, >, & and quotes that encoding/json escapes.
	f.Add([]byte(`{"queries":[{"op":"plan","n":3,"f":1,"strategy":"a<b>&\"c\""},{"op":"lowerbound","n":5,"f":2}]}`))
	f.Add([]byte(`{"queries":[{"op":"searchtimes","n":5,"f":2,"xs":[1,-2,1e300]},{"op":"bogus"}]}`))
	f.Add([]byte(`{"queries":[{"op":"searchtime","n":3,"f":1,"x":1e-7,"mindist":1e-8},{"op":"searchtime","n":3,"f":1,"x":2,` +
		`"objective":"expected","p":0.5,"speeds":[1,2,0.5]},{"op":"lowerbound","n":2,"f":2},{"op":"lowerbound","n":9,"f":4}]}`))
	// A body is one object: trailing data is a 400, a newline is not.
	f.Add([]byte(`{"queries":[{"op":"lowerbound","n":5,"f":2}]} garbage`))
	f.Add([]byte(`{"queries":[{"op":"lowerbound","n":5,"f":2}]}{"queries":[]}`))
	f.Add([]byte(`{"queries":[{"op":"lowerbound","n":5,"f":2}]}` + "\n"))
	// Echoed, formatted and byzantine target lists.
	f.Add([]byte(`{"queries":[{"op":"searchtimes","n":5,"f":2,"xs":[1.5,-2,0.000001,123456789012345]},` +
		`{"op":"searchtimes","n":5,"f":2,"xs":[1,2.50,-3]},{"op":"searchtimes","n":5,"f":1,"model":"byzantine","xs":[7]}]}`))
	h := newTestService(f, Config{}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		// The queries as a []float64 field decodes them: the oracle's
		// targets, and the cost filter.
		var plain struct {
			Queries []struct {
				Op string    `json:"op"`
				N  int       `json:"n"`
				Xs []float64 `json:"xs"`
			} `json:"queries"`
		}
		decoded := json.Unmarshal(body, &plain) == nil
		if decoded {
			for _, q := range plain.Queries {
				if q.N > 64 || len(q.Xs) > 1000 {
					t.Skip("query too expensive for a fuzz input")
				}
			}
		}
		w := postBatch(h, string(body))
		// A batch in between leaves its query list for reuse.
		postBatch(h, staleBatch)
		if again := postBatch(h, string(body)); again.Code != w.Code || !bytes.Equal(again.Body.Bytes(), w.Body.Bytes()) {
			t.Fatalf("the same batch answered twice differs:\n got %d %s\nwant %d %s", again.Code, again.Body, w.Code, w.Body)
		}
		if w.Code != http.StatusOK {
			return
		}
		got := w.Body.Bytes()
		if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(len(got)) {
			t.Fatalf("Content-Length %q for a %d-byte body", cl, len(got))
		}
		want, resp, err := reencodeBatch(got)
		if err != nil {
			t.Fatalf("200 body does not decode: %v\n%s", err, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("body differs from its BatchResponse encoding:\n got %s\nwant %s", got, want)
		}
		failed := 0
		for _, it := range resp.Results {
			if !it.OK {
				failed++
			}
		}
		if resp.Errors != failed {
			t.Fatalf("errors = %d, but %d items have ok=false", resp.Errors, failed)
		}
		if !decoded || len(plain.Queries) != len(resp.Results) {
			t.Fatalf("a 200 for a body the []float64 decode gives %d queries: %s", len(plain.Queries), body)
		}
		for i, it := range resp.Results {
			if !it.OK {
				continue
			}
			switch raw := it.Result.(json.RawMessage); plain.Queries[i].Op {
			case OpSearchTimes:
				checkSearchTimesAnswer(t, plain.Queries[i].Xs, raw)
			case OpSearchTime:
				checkShape[searchTimeShape](t, raw)
			case OpLowerBound:
				checkShape[lowerBoundShape](t, raw)
			}
		}
	})
}
