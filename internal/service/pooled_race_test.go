package service

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestSearchTimesPooledSlicesConcurrent sends searchtimes GETs and
// batches of searchtimes items, of different lengths, concurrently
// through one service, and requires every answer to equal, byte for
// byte, the answer the same request got when sent alone. The GETs and
// the batch workers parse and evaluate into pooled slices, so a slice
// released before its answer is written shows here as another
// request's targets or times.
func TestSearchTimesPooledSlicesConcurrent(t *testing.T) {
	h := newTestService(t, Config{BatchWorkers: 3}).Handler()
	rng := rand.New(rand.NewPCG(3, 5))
	targets := func(n int) []string {
		xs := make([]string, n)
		for i := range xs {
			x := 1 + float64(rng.IntN(99000))/1000
			if rng.IntN(2) == 0 {
				x = -x
			}
			xs[i] = strconv.FormatFloat(x, 'f', -1, 64)
		}
		return xs
	}
	type request struct{ method, target, body string }
	var reqs []request
	keys := []string{"n=3&f=1", "n=5&f=2", "n=7&f=3"}
	for i, n := range []int{1, 3, 17, 64, 250, 1000} {
		reqs = append(reqs, request{http.MethodGet,
			"/v1/searchtimes?" + keys[i%len(keys)] + "&xs=" + strings.Join(targets(n), ","), ""})
	}
	for b := 0; b < 6; b++ {
		var items []string
		for i := 0; i < 12; i++ {
			n := []int{1, 2, 16, 40, 5, 300}[(b+i)%6]
			items = append(items, fmt.Sprintf(`{"op":"searchtimes","n":%d,"f":%d,"xs":[%s]}`,
				3+2*(i%3), 1+i%3, strings.Join(targets(n), ",")))
			if i%4 == 3 {
				items = append(items, `{"op":"searchtime","n":5,"f":2,"x":2.5}`)
			}
		}
		body := `{"queries":[` + strings.Join(items, ",") + `]}`
		if b%2 == 1 {
			body = slowBody(body) // decoded by encoding/json
		}
		reqs = append(reqs, request{http.MethodPost, "/v1/batch", body})
	}
	serve := func(r request) []byte {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(r.method, r.target, strings.NewReader(r.body)))
		if w.Code != http.StatusOK {
			t.Errorf("%s %.60s: %d %s", r.method, r.target, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	alone := make([][]byte, len(reqs))
	for i, r := range reqs {
		alone[i] = serve(r)
	}

	const goroutines, rounds = 6, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				i := (g*7 + k*5) % len(reqs)
				if got := serve(reqs[i]); !bytes.Equal(got, alone[i]) {
					t.Errorf("request %d answered concurrently differs from its answer alone:\n got %.200s\nwant %.200s", i, got, alone[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
