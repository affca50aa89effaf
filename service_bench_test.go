package linesearch_test

// Service benchmarks live in the external test package so they can
// import internal/service, which itself imports linesearch.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"linesearch/internal/service"
	"linesearch/internal/telemetry"
)

// newBenchService builds the handler with the daemon's default request
// deadline and trace sampling (one request in ten, a 256-trace ring),
// so the benchmarks measure the path linesearchd serves.
func newBenchService(b *testing.B, cacheSize int) http.Handler {
	b.Helper()
	svc := service.New(service.Config{
		CacheSize: cacheSize,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
		Tracer:    telemetry.New(telemetry.Config{SampleRate: 0.1, Capacity: 256}),
	})
	return svc.Handler()
}

func serveBench(b *testing.B, h http.Handler, req *http.Request) {
	b.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("%s %s: status %d: %s", req.Method, req.URL, rec.Code, rec.Body.String())
	}
}

// BenchmarkServicePlanCold measures the full request path on a cache
// miss: parse, construct the A(n, f) plan, compute its CR and bounds,
// serialise. MinDist varies per iteration so every request misses.
func BenchmarkServicePlanCold(b *testing.B) {
	h := newBenchService(b, 1) // capacity 1: distinct keys always rebuild
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mindist := 1 + float64(i%1000)/1000 // cycle of 1000 distinct keys
		req := httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/v1/plan?n=5&f=2&mindist=%g", mindist), nil)
		serveBench(b, h, req)
	}
}

// BenchmarkServicePlanHot measures the same path when the plan is
// cached: everything except construction.
func BenchmarkServicePlanHot(b *testing.B) {
	h := newBenchService(b, 8)
	warm := httptest.NewRequest(http.MethodGet, "/v1/plan?n=5&f=2", nil)
	serveBench(b, h, warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/plan?n=5&f=2", nil)
		serveBench(b, h, req)
	}
}

// BenchmarkServicePlanWide measures a cold /v1/plan on a wide fleet,
// A(1001, 500): building the plan, then walking and writing 1001
// robots' turning points. MinDist varies per iteration so every
// request misses.
func BenchmarkServicePlanWide(b *testing.B) {
	h := newBenchService(b, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mindist := 1 + float64(i%1000)/1000
		req := httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/v1/plan?n=1001&f=500&mindist=%g", mindist), nil)
		serveBench(b, h, req)
	}
}

// BenchmarkServiceSearchTimeHot measures one worst-case searchtime
// query on a cached plan: parse, cache hit, kernel, encode.
func BenchmarkServiceSearchTimeHot(b *testing.B) {
	h := newBenchService(b, 8)
	const target = "/v1/searchtime?n=7&f=3&x=7.5"
	serveBench(b, h, httptest.NewRequest(http.MethodGet, target, nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBench(b, h, httptest.NewRequest(http.MethodGet, target, nil))
	}
}

// BenchmarkBatch measures a 64-query mixed batch (plan, searchtime and
// lowerbound ops over a handful of (n, f) pairs) through the worker
// pool, with a warm cache.
func BenchmarkBatch(b *testing.B) {
	h := newBenchService(b, 32)
	var queries []map[string]any
	for i := 0; i < 64; i++ {
		n, f := 3+i%5, 1+i%2
		if n <= 2*f { // keep out of the hopeless regime
			f = 1
		}
		q := map[string]any{"n": n, "f": f}
		switch i % 3 {
		case 0:
			q["op"] = "plan"
		case 1:
			q["op"] = "searchtime"
			q["x"] = 2.0 + float64(i)
		case 2:
			q["op"] = "lowerbound"
		}
		queries = append(queries, q)
	}
	body, err := json.Marshal(map[string]any{"queries": queries})
	if err != nil {
		b.Fatal(err)
	}

	// Warm the cache so the benchmark measures fan-out and evaluation,
	// not first-touch plan construction.
	warm := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
	warm.Header.Set("Content-Type", "application/json")
	serveBench(b, h, warm)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		serveBench(b, h, req)
	}
}

// BenchmarkBatchWide measures a 64-query batch shaped like perfbench's
// curve-batch entries: six warm proportional plans with n from 21 to
// 41, and per ten queries five searchtimes, two plans (whose stored
// bodies run to several KB), one lowerbound and two 16-target curves.
// Two warm-up passes store every plan body, so the timed batches
// measure fan-out, evaluation and response encoding.
func BenchmarkBatchWide(b *testing.B) {
	h := newBenchService(b, 32)
	keys := [][2]int{{21, 10}, {21, 14}, {31, 16}, {31, 24}, {41, 21}, {41, 30}}
	var queries []map[string]any
	for i := 0; i < 64; i++ {
		k := keys[i%len(keys)]
		q := map[string]any{"n": k[0], "f": k[1]}
		switch i % 10 {
		case 0, 1, 2, 3, 4:
			q["op"] = "searchtime"
			q["x"] = 1.5 + float64(i)
		case 5, 6:
			q["op"] = "plan"
		case 7:
			q["op"] = "lowerbound"
		case 8, 9:
			q["op"] = "searchtimes"
			xs := make([]float64, 16)
			for j := range xs {
				xs[j] = float64(j*61%997) - 498.5
			}
			q["xs"] = xs
		}
		queries = append(queries, q)
	}
	body, err := json.Marshal(map[string]any{"queries": queries})
	if err != nil {
		b.Fatal(err)
	}
	post := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		serveBench(b, h, req)
	}
	post()
	post()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// BenchmarkServiceSearchTimesWide measures a 1,000-target searchtimes
// GET on the warm A(41,21) plan, its targets drawn as perfbench's
// curve-batch draws them (3 decimals, |x| from 1 to 1000, sorted):
// parse, cache hit, kernel and an answer of two 1,000-entry lists.
func BenchmarkServiceSearchTimesWide(b *testing.B) {
	h := newBenchService(b, 8)
	rng := rand.New(rand.NewPCG(7, 7))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = math.Round((1+999*rng.Float64())*1000) / 1000
		if rng.IntN(2) == 0 {
			xs[i] = -xs[i]
		}
	}
	slices.Sort(xs)
	toks := make([]string, len(xs))
	for i, x := range xs {
		toks[i] = strconv.FormatFloat(x, 'f', -1, 64)
	}
	target := "/v1/searchtimes?n=41&f=21&xs=" + strings.Join(toks, ",")
	serveBench(b, h, httptest.NewRequest(http.MethodGet, target, nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBench(b, h, httptest.NewRequest(http.MethodGet, target, nil))
	}
}

// BenchmarkServiceBuildCold replays perfbench build-cold's request
// shape through the handler configured as linesearchd's defaults (128
// cached plans, one request in ten traced): n from 3 to 400 on a
// Pareto tail (median 15), f in the proportional regime and one of 400
// mindists, so nearly every request builds a plan and evicts one, in a
// mix of 45% plan, 45% searchtime and 10% lowerbound GETs.
func BenchmarkServiceBuildCold(b *testing.B) {
	h := newBenchService(b, 128)
	rng := rand.New(rand.NewPCG(11, 11))
	targets := make([]string, 4096)
	for i := range targets {
		n := 3 + int(12*(1/(1-rng.Float64())-1))
		if n > 400 || n < 3 {
			n = 400
		}
		f := n/2 + rng.IntN(n-n/2)
		mindist := math.Round((0.25+0.01*float64(rng.IntN(400)))*100) / 100
		key := fmt.Sprintf("n=%d&f=%d", n, f)
		if mindist != 1 {
			key += "&mindist=" + strconv.FormatFloat(mindist, 'f', -1, 64)
		}
		switch u := rng.Float64(); {
		case u < 0.45:
			targets[i] = "/v1/plan?" + key
		case u < 0.9:
			x := math.Round(mindist*(1+99*rng.Float64())*1000) / 1000
			if rng.IntN(2) == 0 {
				x = -x
			}
			targets[i] = "/v1/searchtime?" + key + "&x=" + strconv.FormatFloat(x, 'f', -1, 64)
		default:
			targets[i] = fmt.Sprintf("/v1/lowerbound?n=%d&f=%d", n, f)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBench(b, h, httptest.NewRequest(http.MethodGet, targets[i%len(targets)], nil))
	}
}
