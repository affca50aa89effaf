package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// errSnippet bounds how much of a failed peer answer CallJSON quotes
// in its error.
const errSnippet = 256

// CallJSON is the fleet's one outbound peer request. It sends in as a
// JSON body when in is non-nil, injects ctx's traceparent when a trace
// is live, and decodes a 200 answer into out (nil discards it), reading
// at most limit bytes. Any other status is drained within limit and
// returned with an error quoting the first bytes of the body. The
// status is 0 when no answer arrived.
func CallJSON(ctx context.Context, client *http.Client, method, url string, in, out any, limit int64) (int, error) {
	var body io.Reader
	if in != nil {
		blob, err := json.Marshal(in)
		if err != nil {
			return 0, fmt.Errorf("%s %s: encode: %w", method, url, err)
		}
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tp := Traceparent(ctx); tp != "" {
		req.Header.Set("Traceparent", tp)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	lr := io.LimitReader(resp.Body, limit)
	defer io.Copy(io.Discard, lr) // drain within limit so the connection is reused
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(lr, errSnippet))
		return resp.StatusCode, fmt.Errorf("%s %s returned %s: %s",
			method, url, resp.Status, bytes.TrimSpace(snippet))
	}
	if out != nil {
		if err := json.NewDecoder(lr).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}
