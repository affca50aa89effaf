package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"linesearch/internal/bufpool"
)

// relayPattern is the body a relay-test backend sends: tag repeated and
// cut to size bytes. Tags name the backend, the request and the status,
// so a body holding bytes of another answer does not match.
func relayPattern(tag string, size int) []byte {
	return bytes.Repeat([]byte(tag), size/len(tag)+1)[:size]
}

// relayBackend serves every /v1/ request with a declared-length body of
// the size its "size" parameter asks, filled from its own index and the
// request's "id", and names itself in X-Backend. With flaky=1 the first
// request for an id gets a 503 with a body of the same size, so the
// router retries and drops a buffered answer it will not relay.
func relayBackend(index int) http.HandlerFunc {
	var mu sync.Mutex
	seen := make(map[string]bool)
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		id := q.Get("id")
		size, _ := strconv.Atoi(q.Get("size"))
		status, tag := http.StatusOK, fmt.Sprintf("%d:%s;", index, id)
		if q.Get("flaky") == "1" {
			mu.Lock()
			first := !seen[id]
			seen[id] = true
			mu.Unlock()
			if first {
				status, tag = http.StatusServiceUnavailable, "503:"+tag
			}
		}
		body := relayPattern(tag, size)
		w.Header().Set("X-Backend", strconv.Itoa(index))
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(status)
		w.Write(body)
	}
}

// TestRelayBuffersNotShared drives the router's pooled relay buffers
// from eight concurrent clients: answers from 1 B to 2 MiB (on both
// sides of bufpool.MaxPooled) from two backends whose bytes differ, a
// 503-then-200 retry walk, and, with one backend marked down, replica
// reads whose losing answer is dropped. Every client must get exactly
// the bytes of the backend that answered it. Run it under -race: a
// buffer reused while another request still reads or writes it is a
// data race as well as a wrong body.
func TestRelayBuffersNotShared(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(relayBackend(i))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	router, err := New(Config{
		Backends:        urls,
		HealthInterval:  -1,
		BreakerCooldown: 10 * time.Millisecond,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	front := httptest.NewServer(router.Handler())
	t.Cleanup(front.Close)

	sizes := []int{1, 512, 4 << 10, 40 << 10, 120 << 10,
		bufpool.MaxPooled - 1, bufpool.MaxPooled, bufpool.MaxPooled + 1, 2 << 20}
	// Each request asks a fresh plan key, so answers spread over both
	// backends; searchtime is replica-readable, plan is not.
	request := func(id, size, kind int) string {
		path := "/v1/plan"
		if kind == 2 {
			path = "/v1/searchtime"
		}
		u := fmt.Sprintf("%s%s?n=%d&f=1&id=%d&size=%d", front.URL, path, 3+id, id, size)
		if kind == 1 {
			u += "&flaky=1"
		}
		return u
	}
	check := func(id int, url string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Errorf("GET %s: %v", url, err)
			return
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Errorf("read %s: %v", url, err)
			return
		}
		size, _ := strconv.Atoi(resp.Request.URL.Query().Get("size"))
		want := relayPattern(fmt.Sprintf("%s:%d;", resp.Header.Get("X-Backend"), id), size)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("GET %s: status %d, %d bytes from backend %q that are not its answer",
				url, resp.StatusCode, len(got), resp.Header.Get("X-Backend"))
		}
	}
	const clients = 8
	phase := func(base int) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for j, size := range sizes {
					id := base + c*len(sizes) + j
					check(id, request(id, size, (c+j)%3))
				}
			}(c)
		}
		wg.Wait()
	}

	phase(0)
	// With backend 0 down, each searchtime it owns fans out to both
	// backends; the first answer is relayed, the other dropped.
	router.mu.RLock()
	router.backends[router.ring.Members()[0]].down.Store(true)
	router.mu.RUnlock()
	phase(clients * len(sizes))

	if router.retries.Load() == 0 {
		t.Error("no request took the retry walk")
	}
	if router.replicaReads.Load() == 0 {
		t.Error("no request took the replica-read path")
	}
}

// TestReadRequestBody covers the proxied request read: a declared
// length is read exactly, a body without one is read to EOF, and a body
// over maxRequestBody is refused, before any read when its length says
// so.
func TestReadRequestBody(t *testing.T) {
	const batch = `{"queries":[{"op":"plan","n":3,"f":1}]}`
	huge := strings.Repeat("x", maxRequestBody+1)
	for _, tc := range []struct {
		name, body string
		length     int64
		wantErr    bool
	}{
		{"declared", batch, int64(len(batch)), false},
		{"empty", "", 0, false},
		{"unknown length", batch, -1, false},
		{"declared over the limit", batch, maxRequestBody + 1, true},
		{"unknown length over the limit", huge, -1, true},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(tc.body))
		req.ContentLength = tc.length
		got, err := readRequestBody(httptest.NewRecorder(), req)
		var tooLarge *http.MaxBytesError
		if tc.wantErr {
			if !errors.As(err, &tooLarge) {
				t.Errorf("%s: err = %v, want a MaxBytesError", tc.name, err)
			}
			continue
		}
		if err != nil || string(got) != tc.body || got == nil {
			t.Errorf("%s: body %q, err %v; want %q", tc.name, got, err, tc.body)
		}
	}
}

// BenchmarkRouterRelay measures one proxied GET through a router over
// one backend serving a 40 KB or a 120 KB answer (the sizes of
// perfbench curve-batch's searchtimes curves and batch answers):
// client, router and backend in one process, over loopback.
func BenchmarkRouterRelay(b *testing.B) {
	for _, size := range []int{40 << 10, 120 << 10} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			body := relayPattern("relay;", size)
			backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("Content-Length", strconv.Itoa(len(body)))
				w.Write(body)
			}))
			defer backend.Close()
			router, err := New(Config{
				Backends:       []string{backend.URL},
				HealthInterval: -1,
				Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer router.Close()
			front := httptest.NewServer(router.Handler())
			defer front.Close()
			client := front.Client()
			url := front.URL + "/v1/searchtimes?n=41&f=21&xs=1"

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Get(url)
				if err != nil {
					b.Fatal(err)
				}
				n, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || n != int64(size) || resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d, %d of %d bytes, err %v", resp.StatusCode, n, size, err)
				}
			}
		})
	}
}
